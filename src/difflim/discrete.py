"""Discrete-time Poisson observation model over unit epochs.

New infections in epoch t are Poisson((a + beta I[t-1]) S[t-1] / n) and new
recoveries Poisson(gamma I[t-1]); the state rolls forward by those counts.
Draws are truncated so compartments never go negative (the rate recursion
can overshoot at small S, where the model is otherwise silent).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    DataCorruptionError,
    ModelParams,
    RngStream,
    ValidationError,
    _csv_rows,
    _parse_cell,
    validate_params,
)


@dataclass(frozen=True)
class CountSeries:
    instance_id: str
    i_init: int
    r_init: int
    delta_c: np.ndarray
    delta_r: Optional[np.ndarray] = None

    def __post_init__(self):
        dc = np.asarray(self.delta_c, dtype=np.int64)
        object.__setattr__(self, "delta_c", dc)
        if self.delta_r is not None:
            dr = np.asarray(self.delta_r, dtype=np.int64)
            if len(dr) != len(dc):
                raise ValidationError("delta_r length must match delta_c")
            if np.any(dr < 0):
                raise ValidationError("counts must be non-negative")
            object.__setattr__(self, "delta_r", dr)
        if np.any(dc < 0):
            raise ValidationError("counts must be non-negative")

    @property
    def horizon(self) -> int:
        return len(self.delta_c)

    @property
    def c_total(self) -> int:
        return int(self.i_init + self.r_init + self.delta_c.sum())


def _epoch_step(
    gen: np.random.Generator, s: float, i: float, n: float, a: float, beta: float, gamma: float
) -> tuple[int, int]:
    """The counts of one epoch from state (S, I): new infections
    Poisson((a + beta I) S / n) truncated at S, then recoveries
    Poisson(gamma I) truncated at I plus the new infections.  A zero rate
    draws nothing from ``gen``.  Returns (delta_c, delta_r)."""
    lam = max((a + beta * i) * max(s, 0.0) / n, 0.0)
    dc = min(int(gen.poisson(lam)) if lam > 0 else 0, int(max(s, 0)))
    mu = gamma * i
    dr = min(int(gen.poisson(mu)) if mu > 0 else 0, int(i) + dc)
    return dc, dr


def simulate_discrete(
    params: ModelParams,
    i_init: int,
    r_init: int,
    horizon: int,
    rng: RngStream,
    instance_id: str = "0",
    beta_t: Optional[np.ndarray] = None,
) -> CountSeries:
    """Sample a count series of the given horizon.

    ``beta_t`` optionally fixes a per-epoch transmission rate vector in
    place of the scalar; it is an input, never a fitted quantity.
    """
    validate_params(params)
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    if beta_t is not None and len(beta_t) != horizon:
        raise ValidationError("beta_t must have one value per epoch")
    gen = rng.generator()
    n, a, gamma = params.n, params.a, params.gamma
    s = n - i_init - r_init
    i = float(i_init)
    dc = np.zeros(horizon, dtype=np.int64)
    dr = np.zeros(horizon, dtype=np.int64)
    for t in range(horizon):
        beta = params.beta if beta_t is None else float(beta_t[t])
        draw_c, draw_r = _epoch_step(gen, s, i, n, a, beta, gamma)
        s -= draw_c
        i += draw_c - draw_r
        dc[t] = draw_c
        dr[t] = draw_r
    return CountSeries(
        instance_id=instance_id, i_init=i_init, r_init=r_init, delta_c=dc, delta_r=dr
    )


def _rollout(series: CountSeries, n: float, gamma: float):
    """Latent (S, I) path implied by the observed counts.

    When recoveries are unobserved they are imputed deterministically as
    round(gamma * I[t-1]); the fit result flags this approximation.
    """
    horizon = series.horizon
    s = np.empty(horizon + 1)
    i = np.empty(horizon + 1)
    s[0] = n - series.i_init - series.r_init
    i[0] = series.i_init
    imputed = series.delta_r is None
    for t in range(1, horizon + 1):
        dc = series.delta_c[t - 1]
        dr = series.delta_r[t - 1] if not imputed else round(gamma * i[t - 1])
        s[t] = max(s[t - 1] - dc, 0.0)
        i[t] = max(i[t - 1] + dc - dr, 0.0)
    return s, i, imputed


def _lgamma(v: float) -> float:
    """math.lgamma with scipy.special.gammaln's values where the two
    differ: +inf at the poles 0, -1, -2, ... and on overflow, -inf at -inf."""
    if v == -math.inf:
        return v
    try:
        return math.lgamma(v)
    except (ValueError, OverflowError):
        return math.inf


def _log_factorial(x: np.ndarray) -> np.ndarray:
    """log x! = lgamma(x + 1), element-wise."""
    x = np.asarray(x, dtype=float)
    return np.array([_lgamma(v) for v in (x + 1.0).ravel().tolist()]).reshape(x.shape)


def poisson_logpmf(x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """log p(x; lam) with the conventions p(0; 0) = 1 and p(x>0; 0) = 0."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    out = np.full(np.broadcast(x, lam).shape, -np.inf)
    pos = lam > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = x * np.log(lam) - lam - _log_factorial(x)
    out = np.where(pos, vals, out)
    out = np.where((lam == 0) & (x == 0), 0.0, out)
    return out


def loglik(
    series: CountSeries,
    a: float,
    beta: float,
    n: float,
    gamma_known: float,
    beta_t: Optional[np.ndarray] = None,
) -> float:
    """Sum of Poisson log-densities of the observed infection counts under
    the rolled-forward latent states.  -inf is a legitimate value."""
    if n <= 0 or a < 0 or beta < 0 or gamma_known < 0:
        raise ValidationError("parameters must be non-negative with n > 0")
    s, i, _ = _rollout(series, n, gamma_known)
    betas = np.full(series.horizon, beta) if beta_t is None else np.asarray(beta_t, dtype=float)
    lam = np.maximum((a + betas * i[:-1]) * np.maximum(s[:-1], 0.0) / n, 0.0)
    return float(np.sum(poisson_logpmf(series.delta_c, lam)))


@dataclass(frozen=True)
class OptimizerConfig:
    """Mode and box of ``fit_mle``.

    ``starts`` and ``seed`` are accepted for compatibility and ignored: the
    profile fit has no starts and draws no random numbers.
    """

    starts: int = 16
    seed: int = 0
    fit_a: bool = True
    a_max: float = 10.0
    beta_max: float = 2.0


@dataclass
class FitResult:
    a_hat: float
    beta_hat: float
    n_hat: float
    loglik: float
    converged: bool
    bounds: dict
    trace: list
    recoveries_imputed: bool = False
    loglik_evals: int = 0

    def to_json_dict(self) -> dict:
        return {
            "a_hat": self.a_hat,
            "beta_hat": self.beta_hat,
            "n_hat": self.n_hat,
            "loglik": self.loglik,
            "converged": self.converged,
            "bounds": self.bounds,
            "recoveries_imputed": self.recoveries_imputed,
            "trace": self.trace,
        }


PROFILE_POINTS = 64
_INNER_TOL = 1e-15


def _golden_max(f, lo: float, hi: float, iters: int = 80) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _ab_value(th, xp, ip, u0: float, u1: float) -> float:
    """The (a, b)-dependent part of the loglik at one n:
    sum xp log(a + b ip) - a u0 - b u1."""
    with np.errstate(divide="ignore"):
        return float(np.dot(xp, np.log(th[0] + th[1] * ip))) - th[0] * u0 - th[1] * u1


def _backtrack(th, f: float, g, direction, hi, args):
    """The first of the steps 1, 1/2, 1/4, ... along ``direction``,
    projected onto the box, that raises ``_ab_value`` by the Armijo
    fraction of its predicted gain; None if no step above 1e-12 does."""
    t = 1.0
    while t > 1e-12:
        new = np.clip(th + t * direction, 0.0, hi)
        f_new = _ab_value(new, *args)
        if f_new > f and f_new >= f + 1e-4 * float(np.dot(g, new - th)):
            return new, f_new
        t *= 0.5
    return None


def _inner_newton(xp, ip, u0: float, u1: float, hi, start):
    """Maximize ``_ab_value`` over the box [0, hi[0]] x [0, hi[1]] from a
    start where it is finite: projected Newton steps with an active set at
    the bounds and Armijo backtracking, falling back to a diagonally scaled
    gradient step when the Newton step makes no progress.  The objective is
    concave, so a Newton decrement below tolerance on the free coordinates
    certifies the maximum.  Returns (theta, value, converged)."""
    args = (xp, ip, u0, u1)
    th = np.asarray(start, dtype=float)
    f = _ab_value(th, *args)
    for _ in range(100):
        q = xp / (th[0] + th[1] * ip)
        g = np.array([q.sum() - u0, np.dot(q, ip) - u1])
        q2 = q / (th[0] + th[1] * ip)
        h00, h01, h11 = q2.sum(), np.dot(q2, ip), np.dot(q2, ip * ip)  # minus the Hessian
        free = ~(((th <= 0.0) & (g <= 0.0)) | ((th >= hi) & (g >= 0.0)))
        scaled = np.where(free, g / np.maximum([h00, h11], 1e-300), 0.0)
        det = h00 * h11 - h01 * h01
        if free.all() and det > 1e-12 * h00 * h11:
            step = np.array([h11 * g[0] - h01 * g[1], h00 * g[1] - h01 * g[0]]) / det
        else:
            step = scaled
        if float(np.dot(g, step)) <= _INNER_TOL * max(1.0, abs(f)):
            return th, f, True
        found = _backtrack(th, f, g, step, hi, args) or _backtrack(th, f, g, scaled, hi, args)
        if found is None:
            return th, f, False
        th, f = found
    return th, f, False


def fit_mle(
    series: CountSeries,
    gamma_known: float,
    n_max: float,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> FitResult:
    """Box-constrained likelihood maximization over (a, beta, n) by
    profiling n.

    For n >= c_total the latent infected path does not depend on n and
    S[t-1] = n - k[t] for a fixed vector k, so the Poisson rate
    (a + beta I) S / n is linear in (a, beta) and the inner problem is
    concave.  With a pinned at 0 it is closed form,
    beta(n) = min(sum x / sum(I S / n), beta_max); otherwise
    ``_inner_newton`` solves it, warm-started from the previous n.  The
    profile is scanned on ``PROFILE_POINTS`` points of log n over
    [c_total, n_max], then refined by golden section between the best
    point's neighbours.  ``trace`` holds the scan, one entry per grid
    point; ``loglik_evals`` counts profile evaluations; ``loglik`` is
    ``loglik`` evaluated at the returned point.  ``converged`` means the
    final inner solve met its tolerance and that loglik is finite.
    Deterministic; ``cfg.starts`` and ``cfg.seed`` are ignored.
    """
    if series.delta_c.sum() <= 0:
        raise ValidationError("series has no positive counts")
    n_lo = max(series.c_total, 1.0)
    if n_max < n_lo:
        raise ValidationError("n_max is below the observed cumulative count")
    _, i_path, imputed = _rollout(series, n_lo, gamma_known)

    x = series.delta_c.astype(float)
    i_prev = i_path[:-1]
    k = series.i_init + series.r_init + np.concatenate(([0.0], np.cumsum(x)[:-1]))
    pos = x > 0
    xp, ip, kp = x[pos], i_prev[pos], k[pos]
    const = float(np.sum(_log_factorial(xp)))
    hi = np.array([cfg.a_max if cfg.fit_a else 0.0, cfg.beta_max])
    cold = 0.5 * hi
    warm = cold
    evals = 0

    def profile(n: float):
        nonlocal warm, evals
        evals += 1
        u = (n - k) / n
        u0, u1 = float(u.sum()), float(np.dot(i_prev, u))
        if cfg.fit_a:
            start = warm if math.isfinite(_ab_value(warm, xp, ip, u0, u1)) else cold
            th, f, ok = _inner_newton(xp, ip, u0, u1, hi, start)
            warm = th
        else:
            th = np.array([0.0, min(xp.sum() / u1, hi[1]) if u1 > 0 else hi[1]])
            f, ok = _ab_value(th, xp, ip, u0, u1), True
        return float(f + np.dot(xp, np.log((n - kp) / n)) - const), th, ok

    log_grid = np.linspace(math.log(n_lo), math.log(n_max), PROFILE_POINTS)
    n_grid = np.exp(log_grid)
    n_grid[[0, -1]] = n_lo, n_max
    trace = []
    for n in n_grid:
        ll, th, _ = profile(float(n))
        trace.append({"n": float(n), "a": float(th[0]), "beta": float(th[1]), "loglik": ll})
    j = int(np.argmax([t["loglik"] for t in trace]))
    log_n = _golden_max(
        lambda v: profile(math.exp(v))[0],
        log_grid[max(j - 1, 0)],
        log_grid[min(j + 1, PROFILE_POINTS - 1)],
    )
    n_hat = min(max(math.exp(log_n), n_lo), n_max)
    ll, th, ok = profile(n_hat)
    if not ll >= trace[j]["loglik"]:
        n_hat = trace[j]["n"]
        ll, th, ok = profile(n_hat)
    a_hat, beta_hat = float(th[0]), float(th[1])
    final = loglik(series, a_hat, beta_hat, n_hat, gamma_known)
    return FitResult(
        a_hat=a_hat,
        beta_hat=beta_hat,
        n_hat=n_hat,
        loglik=final,
        converged=bool(ok and math.isfinite(final)),
        bounds={"n_max": n_max, "a_max": cfg.a_max if cfg.fit_a else 0.0, "beta_max": cfg.beta_max},
        trace=trace,
        recoveries_imputed=imputed,
        loglik_evals=evals,
    )


def peaked_set(collection: Sequence[CountSeries], gamma1: float, t: int) -> set[str]:
    """Instances whose increment at epoch t has dropped to at most gamma1
    times their running maximum increment."""
    if not 0 < gamma1 < 1:
        raise ValidationError("gamma1 must be in (0, 1)")
    out = set()
    for series in collection:
        if not 1 <= t <= series.horizon:
            raise ValidationError(f"t={t} outside horizon of {series.instance_id}")
        inc = series.delta_c[t - 1]
        running_max = series.delta_c[:t].max()
        if inc <= gamma1 * running_max:
            out.add(series.instance_id)
    return out


@dataclass(frozen=True)
class PeakForecast:
    mean: float
    quantiles: dict
    past_max: float


def predict_peak(
    series: CountSeries,
    fit: FitResult,
    gamma_known: float,
    horizon: int,
    replicates: int,
    rng: RngStream,
) -> PeakForecast:
    """Point estimate of the peak infected count: the mean over forward
    simulations, from the current latent state under the fitted
    parameters, of the running maximum of I."""
    if not fit.converged:
        raise ValidationError("fit did not converge")
    s_path, i_path, _ = _rollout(series, fit.n_hat, gamma_known)
    past_max = float(i_path.max())
    params = ModelParams(n=fit.n_hat, beta=fit.beta_hat, gamma=gamma_known, p=fit.a_hat / fit.n_hat)

    gen = rng.generator()
    n = fit.n_hat
    s0, i0 = float(s_path[-1]), float(i_path[-1])
    maxima = np.empty(replicates)
    for rep in range(replicates):
        s, i = s0, i0
        peak = i
        for _ in range(horizon):
            dc, dr = _epoch_step(gen, s, i, n, params.a, params.beta, gamma_known)
            s -= dc
            i += dc - dr
            peak = max(peak, i)
        maxima[rep] = max(peak, past_max)
    qs = {q: float(np.quantile(maxima, q)) for q in (0.1, 0.5, 0.9)}
    return PeakForecast(mean=float(maxima.mean()), quantiles=qs, past_max=past_max)


# ---------------------------------------------------------------------------
# Counts CSV: instance_id,t,delta_c[,delta_r]
# ---------------------------------------------------------------------------


def write_counts_csv(collection: Sequence[CountSeries], path, initial_rows: bool = True) -> None:
    """Epoch rows per instance; the initial split is carried as a t=0 row
    with delta_c = i_init and delta_r = r_init."""
    has_dr = any(s.delta_r is not None for s in collection)
    fields = ["instance_id", "t", "delta_c"] + (["delta_r"] if has_dr else [])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(fields)
        for s in collection:
            if initial_rows:
                w.writerow([s.instance_id, 0, s.i_init] + ([s.r_init] if has_dr else []))
            for t in range(1, s.horizon + 1):
                row = [s.instance_id, t, int(s.delta_c[t - 1])]
                if has_dr:
                    row.append(int(s.delta_r[t - 1]) if s.delta_r is not None else "")
                w.writerow(row)


def read_counts_csv(path) -> list[CountSeries]:
    fieldnames, rows = _csv_rows(path, ["instance_id", "t", "delta_c"])
    has_dr = "delta_r" in fieldnames
    by_id: dict[str, list] = {}
    for line, row in rows:
        t = _parse_cell(path, line, row, "t")
        dc = _parse_cell(path, line, row, "delta_c")
        dr = _parse_cell(path, line, row, "delta_r") if has_dr and row["delta_r"] else None
        if dc < 0 or (dr is not None and dr < 0):
            raise DataCorruptionError(f"{path}: line {line}: negative count (counts must be non-negative)")
        by_id.setdefault(row["instance_id"], []).append((t, dc, dr, line))
    out = []
    for iid, rows in by_id.items():
        rows.sort(key=lambda r: r[0])
        i_init = r_init = 0
        if rows and rows[0][0] == 0:
            _, i_init, r_init, _ = rows.pop(0)
            r_init = r_init or 0
        for expected, (t, _, _, line) in enumerate(rows, start=1):
            if t != expected:
                raise DataCorruptionError(
                    f"{path}: line {line}, instance {iid}: epoch t={t} where t={expected} "
                    "was expected (epochs must be contiguous from 1)"
                )
        dc = np.array([r[1] for r in rows], dtype=np.int64)
        drs = [r[2] for r in rows]
        dr = np.array(drs, dtype=np.int64) if has_dr and None not in drs else None
        out.append(CountSeries(instance_id=iid, i_init=i_init, r_init=r_init, delta_c=dc, delta_r=dr))
    return out
