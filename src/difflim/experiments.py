"""Seeded Monte-Carlo studies that exercise the scaling laws end to end.

Every study is a pure function of its config: replicate r of any
experiment draws from the counter-based stream (seed, r'), so reruns and
different worker counts produce identical rows.
"""

from __future__ import annotations

import csv
import json
import math
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
from .simulate import simulate_paths


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
        with open(path) as fh:
            obj = json.load(fh)
        return StudyConfig(
            study=obj["study"],
            grid=obj.get("grid", {}),
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
        "n", "m", "replicates", "mean_rel_error", "median_rel_error",
        "fisher_total", "cr_floor", "efficiency", "upper_hits", "pass",
    ],
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
    block = simulate_paths(params, i0, r0, m, RngStream(seed=config.seed), R)
    beta_hat, gamma_hat, _ = _sir_estimators_from_block(block, i0, r0)

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


def _sir_estimators_from_block(block, i0: int, r0: int):
    """Vectorized (beta_hat, gamma_hat, s_tilde) over replicate columns."""
    m = block.m
    t = np.where(block.alive[:m], block.T, 0.0)
    s_tilde = (block.infected[:m] * t).sum(axis=0)
    a_hat = (block.C[m] - (i0 + r0)) / m
    b_hat = s_tilde / m
    with np.errstate(divide="ignore", invalid="ignore"):
        beta_hat = a_hat / b_hat
        gamma_hat = 1.0 / b_hat - beta_hat
    return beta_hat, gamma_hat, s_tilde


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
        block = simulate_paths(params, i0, r0, m, rng, R)
        p_tau = float(1.0 - np.mean(block.alive[m]))

        gen = rng.substream(1).generator()
        x = (gen.random((R, m)) < p_walk).astype(np.int64)
        walk = i0 + r0 + np.cumsum(x, axis=1)
        ks = np.arange(1, m + 1)
        stopped = np.any(2 * walk <= i0 + ks[None, :] + 2 * r0, axis=1)
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


def bass_loglik_scan(t_col: np.ndarray, i0: int, beta: float, a: float, n_grid: np.ndarray) -> np.ndarray:
    """Log-likelihood of one pure-adoption observation column at each
    candidate n; constant-in-n terms are dropped."""
    m = len(t_col)
    d = np.arange(m, dtype=float) + i0          # I_{k-1}
    c_rate = beta * d + a                       # beta*I + a
    v = float(np.dot(c_rate * d, t_col))
    out = np.empty(len(n_grid))
    for j, n in enumerate(n_grid):
        out[j] = float(np.sum(np.log(n - d))) - m * math.log(n) + v / n
    return out


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


def mle_population_bass(
    t_col: np.ndarray, i0: int, beta: float, a: float, upper_factor: float = 1e3
) -> float:
    """1-D likelihood maximization for n with beta and a known, over
    [C_m, upper_factor * C_m] in log space: coarse scan then golden-section
    refinement around the best grid point."""
    m = len(t_col)
    c_m = m + i0
    lo, hi = math.log(c_m * (1.0 + 1e-9)), math.log(upper_factor * c_m)
    grid = np.exp(np.linspace(lo, hi, 64))
    vals = bass_loglik_scan(t_col, i0, beta, a, grid)
    j = int(np.argmax(vals))
    lo_j = math.log(grid[max(j - 1, 0)])
    hi_j = math.log(grid[min(j + 1, len(grid) - 1)])

    def f(log_n: float) -> float:
        return bass_loglik_scan(t_col, i0, beta, a, np.array([math.exp(log_n)]))[0]

    return math.exp(_golden_max(f, lo_j, hi_j))


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
        block = simulate_paths(params, i0, 0, m, RngStream(seed=config.seed, stream_id=500 * idx), R)
        rel_errors = np.empty(R)
        upper_hits = 0
        for r in range(R):
            n_hat = mle_population_bass(block.T[:, r], i0, beta, a, upper_factor)
            rel_errors[r] = (n_hat - n) ** 2 / n ** 2
            if n_hat > 0.99 * upper_factor * (m + i0):
                upper_hits += 1
        rep = fisher_bass(n, i0, m)
        floor = cramer_rao_rel_error(rep)
        mean_err = float(np.mean(rel_errors))
        rows.append(
            {
                "n": n,
                "m": m,
                "replicates": R,
                "mean_rel_error": mean_err,
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
