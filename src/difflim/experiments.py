"""Seeded Monte-Carlo studies that exercise the scaling laws end to end.

Every study is a pure function of its config: replicate r of any
experiment draws from the counter-based stream (seed, r'), so reruns and
different worker counts produce identical rows.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .core import ModelParams, Regime, RngStream, ValidationError
from .estimate import bass_time_ratio, bass_peak_indices, rate_band, recovery_band
from .fisher import (
    MC_CHUNK,
    compute_survival_threshold,
    cramer_rao_rel_error,
    fisher_bass,
    fisher_sir_mc,
    highprob_rate_condition,
)
from .fluid import integrate, peak_bounds, peak_times
from .simulate import ColumnTotals, path_slabs


class StudyAssertionError(AssertionError):
    """A study ran to completion but a recorded check failed."""


@dataclass(frozen=True)
class StudyConfig:
    study: str
    grid: dict
    replicates: int = 1
    seed: int = 0
    output_path: Optional[str] = None

    def __post_init__(self):
        if self.replicates < 1:
            raise ValidationError("replicates must be >= 1")
        if not self.grid:
            raise ValidationError("grid must be non-empty")

    @staticmethod
    def from_json(path) -> "StudyConfig":
        """The config in a JSON file: an object with a string ``study``, an
        object ``grid`` and optional integer ``replicates`` and ``seed``."""
        with open(path) as fh:
            try:
                obj = json.load(fh)
            except ValueError as exc:
                raise ValidationError(f"{path}: not a JSON study config: {exc}") from None
        if not isinstance(obj, dict):
            raise ValidationError(f"{path}: a study config is a JSON object, got {type(obj).__name__}")
        if not isinstance(obj.get("study"), str):
            raise ValidationError(f"{path}: 'study' must be a study name string")
        if not isinstance(obj.get("grid"), dict):
            raise ValidationError(f"{path}: 'grid' must be a JSON object")
        for key in ("replicates", "seed"):
            if key in obj and not _is_integer(obj[key]):
                raise ValidationError(f"{path}: {key!r} must be an integer, got {obj[key]!r}")
        return StudyConfig(
            study=obj["study"],
            grid=obj["grid"],
            replicates=obj.get("replicates", 1),
            seed=obj.get("seed", 0),
            output_path=obj.get("output_path"),
        )


@dataclass
class StudyResult:
    study: str
    rows: list
    summary: dict
    metadata: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        row_ok = all(r.get("pass", True) for r in self.rows)
        summary_ok = all(v for k, v in self.summary.items() if k.startswith("pass"))
        return row_ok and summary_ok

    def write_csv(self, path) -> None:
        cols = STUDY_SCHEMAS[self.study]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cols)
            for r in self.rows:
                w.writerow([r.get(c, "") for c in cols])

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "study": self.study,
                    "rows": self.rows,
                    "summary": self.summary,
                    "metadata": self.metadata,
                },
                fh,
                indent=2,
                sort_keys=True,
                default=float,
            )
            fh.write("\n")


STUDY_SCHEMAS = {
    "FisherScaling": [
        "regime", "n", "m", "i0", "total", "stderr", "scaling_ratio", "pass",
    ],
    "TimeRatio": ["alpha", "n", "p", "k_cr", "k_star", "ratio", "pass"],
    "Coverage": [
        "n", "m", "i0", "beta", "gamma", "delta", "replicates", "coverage",
        "label", "threshold", "pass",
    ],
    "Dominance": [
        "n", "m", "i0", "beta", "gamma", "p_walk", "replicates",
        "p_tau", "p_tau_walk", "slack", "pass",
    ],
    "FluidSandwich": [
        "n", "beta", "gamma", "c0", "i0", "t_cr_lower", "t_cr",
        "t_star_inflection", "t_star_rate", "t_star_upper", "ratio", "pass",
    ],
    "RelErrorScaling": [
        "n", "m", "replicates", "mean_rel_error", "mean_rel_error_se", "median_rel_error",
        "fisher_total", "cr_floor", "efficiency", "upper_hits", "pass",
    ],
}


def _is_integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _population(x) -> bool:
    return _is_number(x) and x > 0


def _horizon(x) -> bool:
    return _is_integer(x) and x >= 1


def _list_of(check):
    return lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(check(x) for x in v)


def _point(pt) -> bool:
    return isinstance(pt, dict) and _population(pt.get("n")) and _horizon(pt.get("m"))


# What each grid key holds, whichever study requires it.
GRID_VALUES = {
    "n": ("a positive finite number", _population),
    "m": ("an integer >= 1", _horizon),
    "ns": ("a non-empty list of positive finite numbers", _list_of(_population)),
    "ms": ("a non-empty list of integers >= 1", _list_of(_horizon)),
    "alphas": ("a non-empty list of finite numbers", _list_of(_is_number)),
    "points": ("a non-empty list of objects with a positive finite n and an integer m >= 1", _list_of(_point)),
}

# The grid keys each study requires.
STUDY_GRID_KEYS = {
    "FisherScaling": ("ns",),
    "TimeRatio": ("alphas", "ns"),
    "Coverage": ("n", "m"),
    "Dominance": ("points",),
    "FluidSandwich": ("ns",),
    "RelErrorScaling": ("n", "ms"),
}


def run_study(config: StudyConfig) -> StudyResult:
    dispatch = {
        "FisherScaling": fisher_scaling_study,
        "TimeRatio": time_ratio_study,
        "Coverage": coverage_study,
        "Dominance": dominance_study,
        "FluidSandwich": fluid_sandwich_study,
        "RelErrorScaling": rel_error_study,
    }
    if config.study not in dispatch:
        raise ValidationError(f"unknown study {config.study!r}")
    for key in STUDY_GRID_KEYS[config.study]:
        what, valid = GRID_VALUES[key]
        if key not in config.grid:
            raise ValidationError(f"{config.study} grid needs {key!r}: {what}")
        if not valid(config.grid[key]):
            raise ValidationError(f"{config.study} grid {key!r} must be {what}, got {config.grid[key]!r}")
    result = dispatch[config.study](config)
    result.metadata.update({"seed": config.seed, "version": __version__})
    if config.output_path:
        result.write_csv(str(config.output_path) + ".csv")
        result.write_json(str(config.output_path) + ".json")
    return result


def _m_for(n: float, rule) -> int:
    if isinstance(rule, (int, np.integer)):
        return int(rule)
    if rule == "n^(2/3)":
        return math.ceil(n ** (2.0 / 3.0))
    raise ValidationError(f"unknown m rule {rule!r}")


# ---------------------------------------------------------------------------

FISHER_STREAM_SPACING = 1000


def fisher_scaling_study(config: StudyConfig) -> StudyResult:
    """J * n^4 / m^3 across a population grid, exact for the pure-adoption
    regime and Monte-Carlo for the recovery regime."""
    g = config.grid
    regime = g.get("regime", "bass")
    beta = g.get("beta", 0.5)
    gamma = g.get("gamma", 0.25)
    # Grid point idx uses streams FISHER_STREAM_SPACING*idx + chunk; more
    # chunks than that would reuse the next point's streams.
    chunks = math.ceil(config.replicates / MC_CHUNK)
    if regime != "bass" and chunks > FISHER_STREAM_SPACING:
        raise ValidationError(
            f"{config.replicates} replicates need {chunks} Monte-Carlo chunks, more than the "
            f"{FISHER_STREAM_SPACING} streams each grid point owns"
        )
    rows = []
    ratios = []
    for idx, n in enumerate(g["ns"]):
        m = _m_for(n, g.get("m", "n^(2/3)"))
        if regime == "bass":
            i0 = g.get("i0", 1)
            rep = fisher_bass(n, i0, m)
            stderr = 0.0
            ok = 0.25 <= rep.scaling_ratio <= 4.0
        else:
            i0 = g.get("i0") or default_sir_i0(beta, gamma)
            params = ModelParams(n=n, beta=beta, gamma=gamma, regime=Regime.SIR)
            rep = fisher_sir_mc(
                params, i0, g.get("r0", 0), m, config.replicates,
                RngStream(seed=config.seed, stream_id=FISHER_STREAM_SPACING * idx),
            )
            stderr = rep.mc_stderr
            ok = stderr < 0.1 * rep.total
        ratios.append(rep.scaling_ratio)
        rows.append(
            {
                "regime": regime,
                "n": n,
                "m": m,
                "i0": i0,
                "total": rep.total,
                "stderr": stderr,
                "scaling_ratio": rep.scaling_ratio,
                "pass": bool(ok),
            }
        )
    spread = max(ratios) / min(ratios) if min(ratios) > 0 else math.inf
    summary = {
        "ratio_spread": spread,
        "pass_spread": spread < (2.0 if regime == "bass" else 3.0),
    }
    return StudyResult(study="FisherScaling", rows=rows, summary=summary)


def default_sir_i0(beta: float, gamma: float) -> int:
    """max(ceil(d), 40) with d the survival threshold; comfortably inside
    both hypothesis sets for the default rates."""
    return max(math.ceil(compute_survival_threshold(beta, gamma).d), 40)


def time_ratio_study(config: StudyConfig) -> StudyResult:
    """Expected-time ratio to reach n^(2/3) observations versus the holding
    time peak, along p/beta = n^(-alpha) grids."""
    g = config.grid
    beta = g.get("beta", 0.5)
    rows = []
    monotone = {}
    for alpha in g["alphas"]:
        series = []
        for n in g["ns"]:
            p = beta / n ** alpha
            k_cr, k_star = bass_peak_indices(n, p, beta)
            ratio = bass_time_ratio(n, p, beta)
            series.append(ratio)
            rows.append(
                {
                    "alpha": alpha,
                    "n": n,
                    "p": p,
                    "k_cr": k_cr,
                    "k_star": k_star,
                    "ratio": ratio,
                    "pass": bool(0.0 < ratio < 1.0),
                }
            )
        monotone[alpha] = series
    summary = {}
    for alpha, series in monotone.items():
        diffs = np.diff(series)
        if alpha >= 1:
            summary[f"pass_monotone_up_alpha_{alpha}"] = bool(np.all(diffs > 0))
            summary[f"gap_to_2_3_alpha_{alpha}"] = abs(series[-1] - 2.0 / 3.0)
        elif alpha <= 1.0 / 3.0:
            summary[f"pass_monotone_down_alpha_{alpha}"] = bool(np.all(diffs < 0))
        else:
            summary[f"limit_alpha_{alpha}"] = (alpha - 1.0 / 3.0) / alpha
            summary[f"final_ratio_alpha_{alpha}"] = series[-1]
    return StudyResult(study="TimeRatio", rows=rows, summary=summary)


def coverage_study(config: StudyConfig) -> StudyResult:
    """Empirical joint coverage of the estimator bands at the truth, with
    delta = sqrt(5 log m / m)."""
    g = config.grid
    n, m = g["n"], g["m"]
    beta, gamma = g.get("beta", 0.5), g.get("gamma", 0.25)
    i0 = g.get("i0") or math.ceil(compute_survival_threshold(beta, gamma).d)
    r0 = g.get("r0", 0)
    c0 = i0 + r0
    R = config.replicates
    delta = math.sqrt(5.0 * math.log(m) / m)
    z = (n - m - c0) / n

    params = ModelParams(n=n, beta=beta, gamma=gamma, regime=Regime.SIR)
    # The estimators need the final count and the column sums of the
    # live-weighted I_{k-1} * T_k, reduced slab by slab.
    s_tilde = ColumnTotals(m, R)
    for k0, slab in path_slabs(params, i0, r0, m, RngStream(seed=config.seed), R):
        t = np.where(slab.alive[:-1], slab.T, 0.0)
        s_tilde.add(slab.infected[:-1] * t)
        if k0 + slab.m == m:
            c_m = slab.C[-1].copy()
    a_hat = (c_m - c0) / m
    b_hat = s_tilde.total() / m
    with np.errstate(divide="ignore", invalid="ignore"):
        beta_hat = a_hat / b_hat
        gamma_hat = 1.0 / b_hat - beta_hat

    b_lo, b_hi = rate_band(beta, delta, z)
    g_lo, g_hi = recovery_band(beta, gamma, delta, z)
    covered = (
        (beta_hat >= b_lo) & (beta_hat <= b_hi)
        & (gamma_hat >= g_lo) & (gamma_hat <= g_hi)
    )
    coverage = float(np.mean(covered))
    thr = compute_survival_threshold(beta, gamma)
    label = max(1.0 - 8.0 / m - 2.0 * thr.c1 * math.exp(-thr.c2 * i0), 0.0)
    sigma = math.sqrt(max(label * (1 - label), 0.25 / R) / R)
    threshold = label - 3.0 * sigma
    row = {
        "n": n,
        "m": m,
        "i0": i0,
        "beta": beta,
        "gamma": gamma,
        "delta": delta,
        "replicates": R,
        "coverage": coverage,
        "label": label,
        "threshold": threshold,
        "pass": bool(coverage >= threshold),
    }
    return StudyResult(study="Coverage", rows=[row], summary={"pass_coverage": row["pass"]})


WALK_CHUNK_DOUBLES = 1 << 16


def dominance_study(config: StudyConfig) -> StudyResult:
    """Stopping probability of the diffusion versus the Bernoulli
    comparison walk: P(tau <= m) <= P(tau_A <= m) + 3 sigma."""
    g = config.grid
    rows = []
    R = config.replicates
    for idx, pt in enumerate(g["points"]):
        n, m = pt["n"], pt["m"]
        i0, r0 = pt.get("i0", 1), pt.get("r0", 0)
        beta, gamma = pt.get("beta", 0.5), pt.get("gamma", 0.25)
        params = ModelParams(n=n, beta=beta, gamma=gamma, regime=Regime.SIR)
        if not highprob_rate_condition(params, m, i0 + r0):
            raise ValidationError(f"point {pt} violates the rate condition")
        p_walk = compute_survival_threshold(beta, gamma).p

        rng = RngStream(seed=config.seed, stream_id=10_000 * idx)
        # Only the final row, alive after m jumps, is read.
        for k0, slab in path_slabs(params, i0, r0, m, rng, R, times=False):
            if k0 + slab.m == m:
                p_tau = float(1.0 - np.mean(slab.alive[-1]))

        # The walk is drawn in row chunks of at most WALK_CHUNK_DOUBLES
        # uniforms: the same stream, in the same row-major order, as one
        # (R, m) draw.  With S_k the walk's successes, the stopping condition
        # 2(i0 + r0 + S_k) <= i0 + k + 2 r0 is 2 S_k - k <= -i0, tested in
        # integers on the running minimum.
        gen = rng.substream(1).generator()
        ks = np.arange(1, m + 1, dtype=np.int32)
        chunk = max(1, WALK_CHUNK_DOUBLES // m)
        stopped = np.empty(R, dtype=bool)
        for start in range(0, R, chunk):
            stop = min(start + chunk, R)
            walk = np.cumsum(gen.random((stop - start, m)) < p_walk, axis=1, dtype=np.int32)
            walk *= 2
            walk -= ks
            stopped[start:stop] = walk.min(axis=1) <= -i0
        p_tau_walk = float(np.mean(stopped))

        sigma = math.sqrt(max(p_tau_walk * (1 - p_tau_walk), 0.25 / R) / R)
        ok = p_tau <= p_tau_walk + 3.0 * sigma
        rows.append(
            {
                "n": n,
                "m": m,
                "i0": i0,
                "beta": beta,
                "gamma": gamma,
                "p_walk": p_walk,
                "replicates": R,
                "p_tau": p_tau,
                "p_tau_walk": p_tau_walk,
                "slack": 3.0 * sigma,
                "pass": bool(ok),
            }
        )
    return StudyResult(
        study="Dominance",
        rows=rows,
        summary={"pass_all": all(r["pass"] for r in rows)},
    )


def fluid_sandwich_study(config: StudyConfig) -> StudyResult:
    """Closed-form bounds versus integrated marker times, and the ratio
    t_cr / t_star_rate increasing with n."""
    g = config.grid
    beta, gamma = g.get("beta", 0.5), g.get("gamma", 0.25)
    c0, i0 = g.get("c0", 1.0), g.get("i0", 1.0)
    r0 = c0 - i0
    rows = []
    ratios = []
    for n in g["ns"]:
        params = ModelParams(n=n, beta=beta, gamma=gamma, regime=Regime.SIR)
        traj = integrate(params, n - c0, i0, r0)
        markers = peak_times(traj)
        bounds = peak_bounds(params, c0, i0)
        t_cr, t_rate = markers["t_cr"], markers["t_star_rate"]
        ok = (
            t_cr is not None
            and t_rate is not None
            and bounds.t_cr_lower <= t_cr
            and t_rate <= bounds.t_star_upper
        )
        ratio = (t_cr / t_rate) if ok else math.nan
        ratios.append(ratio)
        rows.append(
            {
                "n": n,
                "beta": beta,
                "gamma": gamma,
                "c0": c0,
                "i0": i0,
                "t_cr_lower": bounds.t_cr_lower,
                "t_cr": t_cr,
                "t_star_inflection": markers["t_star_inflection"],
                "t_star_rate": t_rate,
                "t_star_upper": bounds.t_star_upper,
                "ratio": ratio,
                "pass": bool(ok),
            }
        )
    increasing = bool(np.all(np.diff(ratios) > 0))
    return StudyResult(
        study="FluidSandwich",
        rows=rows,
        summary={"pass_ratio_increasing": increasing},
    )


# ---------------------------------------------------------------------------


POPULATION_GRID = 64

# B_2k / (2k) for k = 1..7, the coefficients of z^k, z = 1/x^2, in psi's
# asymptotic series.
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)


def _digamma(x: np.ndarray) -> np.ndarray:
    """psi(x) element-wise for x >= 1: the recurrence psi(x) = psi(x + 1) - 1/x
    (Abramowitz & Stegun 6.3.5) up to x >= 10, then the asymptotic series
    ln x - 1/(2x) - sum_k B_2k / (2k x^2k) (6.3.18) through k = 7, whose
    first omitted term is below 5e-17 at x = 10."""
    x = np.array(x, dtype=float)
    shift = np.zeros_like(x)
    low = x < 10.0
    if low.any():
        xl, sl = x[low], shift[low]
        for _ in range(9):
            small = xl < 10.0
            sl -= small / xl
            xl += small
        x[low], shift[low] = xl, sl
    z = 1.0 / (x * x)
    tail = _PSI_SERIES[-1] * z
    for c in reversed(_PSI_SERIES[:-1]):
        tail += c
        tail *= z
    return np.log(x) - 0.5 / x - tail + shift


def mle_population_bass(v: np.ndarray, m: int, i0: int, upper_factor: float = 1e3) -> np.ndarray:
    """Likelihood maximization for n with beta and a known, over
    [C_m, upper_factor * C_m] in log space, for R replicates at once.

    With d_k = i0 + k - 1 the infected count before jump k, a replicate
    enters the pure-adoption loglik sum log(n - d) - m log n + v / n only
    through v = sum_k (beta d_k + a) d_k T_k, so ``v`` (shape (R,)) is all
    the MLE reads of the holding times, and it returns n_hat of shape (R,).
    The n-only term is scanned once on ``POPULATION_GRID`` points, v / n is
    added per replicate, and inside the bracket of the best grid point's
    neighbours the derivative in log n,
    n (psi(n - i0 + 1) - psi(n - i0 - m + 1)) - m - v / n, is bisected to
    its root.  A bracket with no sign change returns whichever end has the
    larger loglik."""
    v = np.asarray(v, dtype=float)
    c_m = m + i0
    log_grid = np.linspace(math.log(c_m * (1.0 + 1e-9)), math.log(upper_factor * c_m), POPULATION_GRID)
    grid = np.exp(log_grid)
    d = np.arange(m, dtype=float) + i0  # I_{k-1}
    n_term = np.log(grid[:, None] - d[None, :]).sum(axis=1) - m * np.log(grid)
    vals = n_term[None, :] + v[:, None] / grid[None, :]
    j = np.argmax(vals, axis=1)
    j_lo, j_hi = np.maximum(j - 1, 0), np.minimum(j + 1, POPULATION_GRID - 1)

    def slope(log_n):
        n = np.exp(log_n)
        psi = _digamma(np.concatenate((n - i0 + 1, n - i0 - m + 1)))
        return n * (psi[: len(n)] - psi[len(n) :]) - m - v / n

    lo, hi = log_grid[j_lo], log_grid[j_hi]
    rows = np.arange(len(v))
    ends = np.where(vals[rows, j_hi] > vals[rows, j_lo], hi, lo)
    bracketed = (slope(lo) > 0) & (slope(hi) <= 0)
    # Halves a bracket under 1 in log n down to rounding.  The slope is a
    # fixed function of the brackets, so once an iteration moves no end,
    # every later one would repeat it: stopping there is exact.
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        up = slope(mid) > 0
        new_lo, new_hi = np.where(up, mid, lo), np.where(up, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return np.exp(np.where(bracketed, 0.5 * (lo + hi), ends))


def _slab_products(
    params: ModelParams, i0: int, m: int, rng: RngStream, replicates: int, w: np.ndarray
) -> np.ndarray:
    """w @ T for the (m, replicates) holding times T of ``path_slabs``,
    summed one slab product at a time."""
    v = np.zeros(replicates)
    for k0, slab in path_slabs(params, i0, 0, m, rng, replicates):
        v += w[k0 : k0 + slab.m] @ slab.T
    return v


def rel_error_study(config: StudyConfig) -> StudyResult:
    """Empirical relative error of the population MLE against the
    information floor, on a pure-adoption grid with beta and a known."""
    g = config.grid
    n = g["n"]
    beta = g.get("beta", 0.5)
    alpha = g.get("alpha", 1.0)
    a = g.get("a", beta / n ** (alpha - 1.0))
    i0 = g.get("i0", 1)
    upper_factor = g.get("upper_factor", 1e3)
    R = config.replicates
    params = ModelParams(n=n, beta=beta, gamma=0.0, p=a / n, regime=Regime.BASS)

    rows = []
    for idx, m in enumerate(g["ms"]):
        d = np.arange(m, dtype=float) + i0  # I_{k-1}
        rng = RngStream(seed=config.seed, stream_id=500 * idx)
        v = _slab_products(params, i0, m, rng, R, (beta * d + a) * d)
        n_hat = mle_population_bass(v, m, i0, upper_factor)
        rel_errors = (n_hat - n) ** 2 / n ** 2
        upper_hits = int(np.sum(n_hat > 0.99 * upper_factor * (m + i0)))
        rep = fisher_bass(n, i0, m)
        floor = cramer_rao_rel_error(rep)
        mean_err = float(np.mean(rel_errors))
        rows.append(
            {
                "n": n,
                "m": m,
                "replicates": R,
                "mean_rel_error": mean_err,
                "mean_rel_error_se": float(np.std(rel_errors, ddof=1)) / math.sqrt(R) if R > 1 else math.nan,
                "median_rel_error": float(np.median(rel_errors)),
                "fisher_total": rep.total,
                "cr_floor": floor,
                "efficiency": mean_err / floor,
                "upper_hits": upper_hits,
                "pass": bool(mean_err >= 0.8 * floor),
            }
        )
    summary = {}
    if len(rows) >= 2:
        floor_drop = rows[0]["cr_floor"] / rows[-1]["cr_floor"]
        summary["floor_drop"] = floor_drop
        summary["empirical_drop"] = rows[0]["mean_rel_error"] / rows[-1]["mean_rel_error"]
        m_ratio = rows[-1]["m"] / rows[0]["m"]
        ideal = m_ratio ** 3
        summary["pass_floor_drop"] = bool(ideal / 2.0 <= floor_drop <= ideal * 2.0)
    return StudyResult(study="RelErrorScaling", rows=rows, summary=summary)
