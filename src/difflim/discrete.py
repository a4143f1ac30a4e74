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
    _parse_cell,
    _require_columns,
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
        lam = max((a + beta * i) * max(s, 0.0) / n, 0.0)
        draw_c = int(gen.poisson(lam)) if lam > 0 else 0
        draw_c = min(draw_c, int(max(s, 0)))
        mu = gamma * i
        draw_r = int(gen.poisson(mu)) if mu > 0 else 0
        draw_r = min(draw_r, int(i) + draw_c)
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


def poisson_logpmf(x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """log p(x; lam) with the conventions p(0; 0) = 1 and p(x>0; 0) = 0."""
    from scipy.special import gammaln

    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    out = np.full(np.broadcast(x, lam).shape, -np.inf)
    pos = lam > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = x * np.log(lam) - lam - gammaln(x + 1.0)
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
    starts: int = 16
    seed: int = 0
    ftol: float = 1e-9
    max_evals: int = 5000
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


def fit_mle(
    series: CountSeries,
    gamma_known: float,
    n_max: float,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> FitResult:
    """Box-constrained likelihood maximization over (a, beta, n).

    Multi-start simplex descent with n log-parameterized; starts lie on a
    seeded log-grid over n in [c_total, n_max] crossed with beta values in
    [0.01, beta_max].  Deterministic given cfg.seed.  ``converged`` is the
    optimizer's own flag for the returned (best) start.
    """
    from scipy.optimize import minimize

    if series.delta_c.sum() <= 0:
        raise ValidationError("series has no positive counts")
    n_lo = max(series.c_total, 1.0)
    if n_max < n_lo:
        raise ValidationError("n_max is below the observed cumulative count")
    _, _, imputed = _rollout(series, n_lo, gamma_known)

    gen = RngStream(seed=cfg.seed, stream_id=0).generator()
    log_n_lo, log_n_hi = math.log(n_lo), math.log(n_max)
    penalty = -1e18

    def objective(x) -> float:
        a = x[0] if cfg.fit_a else 0.0
        beta, log_n = (x[1], x[2]) if cfg.fit_a else (x[0], x[1])
        val = loglik(series, a, beta, math.exp(log_n), gamma_known)
        return -val if math.isfinite(val) else -penalty

    n_grid = np.exp(np.linspace(log_n_lo, log_n_hi, max(cfg.starts // 4, 2)))
    beta_grid = np.geomspace(0.01, cfg.beta_max, 4)
    starts = []
    for ln in np.log(n_grid):
        for b in beta_grid:
            starts.append((b, ln))
    starts = starts[: max(cfg.starts, 1)]
    while len(starts) < cfg.starts:
        starts.append(
            (
                float(gen.uniform(0.01, cfg.beta_max)),
                float(gen.uniform(log_n_lo, log_n_hi)),
            )
        )

    if cfg.fit_a:
        bounds = [(0.0, cfg.a_max), (0.0, cfg.beta_max), (log_n_lo, log_n_hi)]
    else:
        bounds = [(0.0, cfg.beta_max), (log_n_lo, log_n_hi)]

    best = None
    trace = []
    for b0, ln0 in starts:
        x0 = [0.5, b0, ln0] if cfg.fit_a else [b0, ln0]
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            bounds=bounds,
            options={"fatol": cfg.ftol, "xatol": 1e-10, "maxfev": cfg.max_evals},
        )
        trace.append(
            {
                "start": list(map(float, x0)),
                "loglik": -float(res.fun),
                "nfev": int(res.nfev),
                "converged": bool(res.success),
            }
        )
        if best is None or res.fun < best.fun:
            best = res

    if cfg.fit_a:
        a_hat, beta_hat, log_n_hat = best.x
    else:
        a_hat = 0.0
        beta_hat, log_n_hat = best.x
    return FitResult(
        a_hat=float(a_hat),
        beta_hat=float(beta_hat),
        n_hat=float(math.exp(log_n_hat)),
        loglik=-float(best.fun),
        converged=bool(best.success),
        bounds={"n_max": n_max, "a_max": cfg.a_max if cfg.fit_a else 0.0, "beta_max": cfg.beta_max},
        trace=trace,
        recoveries_imputed=imputed,
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
            lam = max((params.a + params.beta * i) * max(s, 0.0) / n, 0.0)
            dc = min(int(gen.poisson(lam)) if lam > 0 else 0, int(max(s, 0)))
            mu = gamma_known * i
            dr = min(int(gen.poisson(mu)) if mu > 0 else 0, int(i) + dc)
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
    with open(path, newline="") as fh:
        rdr = csv.DictReader(fh)
        _require_columns(path, rdr.fieldnames, ["instance_id", "t", "delta_c"])
        has_dr = "delta_r" in rdr.fieldnames
        by_id: dict[str, list] = {}
        for row in rdr:
            line = rdr.line_num
            t = _parse_cell(path, line, row, "t")
            dc = _parse_cell(path, line, row, "delta_c")
            dr = _parse_cell(path, line, row, "delta_r") if has_dr and row["delta_r"] else None
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
