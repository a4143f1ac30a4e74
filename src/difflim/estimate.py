"""Closed-form estimators from observation sets.

Recovery regime: A = (C_m - C_0)/m estimates beta/(beta+gamma) and
B = (1/m) sum_{k<=min(m,tau)} I_{k-1} T_k estimates 1/(beta+gamma), giving
beta = A/B and gamma = 1/B - beta.

Pure-adoption regime: with S_k = sum_{i<=k/2} min(T_i, T_{k-i}), the
statistic k/(2 S_k) concentrates around 2a + k beta, so any (a, b) that
satisfies every slab |k/(2 S_k) - (2a + k b)| <= radius_k is a valid
estimate; the slabs are intersected exactly as halfplanes in the plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import ObservationSet, ValidationError, reconstruct_state
from .fisher import compute_survival_threshold


@dataclass
class EstimateReport:
    regime: str
    m: int
    point: dict
    inputs: dict
    intervals: Optional[dict] = None
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "regime": self.regime,
            "m": self.m,
            "point": self.point,
            "inputs": self.inputs,
            "intervals": self.intervals,
            "diagnostics": self.diagnostics,
        }


# ---------------------------------------------------------------------------
# Recovery regime
# ---------------------------------------------------------------------------


def estimate_sir(obs: ObservationSet, n_known: Optional[float] = None) -> EstimateReport:
    """Point estimates (beta, gamma) from the first m observations.

    The infected counts I_{k-1} are reconstructed from the cumulative
    counts; the duration sum truncates at the stopping index when the
    process dies inside the horizon, which the report flags.
    """
    m = obs.m
    if m < 1:
        raise ValidationError("need at least one observation")
    counts = obs.counts()
    times = obs.inter_arrivals()

    s_tilde = 0.0
    i_prev = obs.i0
    tau_observed = False
    terms = []
    for k in range(1, m + 1):
        if i_prev <= 0:
            tau_observed = True
            break
        terms.append(i_prev * times[k - 1])
        alive, i_k = reconstruct_state(int(counts[k - 1]), k, obs.i0, obs.r0)
        i_prev = i_k if alive else 0
    s_tilde = math.fsum(terms)
    if not s_tilde > 0:
        raise ValidationError("degenerate duration sum")

    a_hat = (counts[-1] - obs.c0) / m
    b_hat = s_tilde / m
    beta_hat = a_hat / b_hat
    gamma_hat = 1.0 / b_hat - beta_hat
    tau_observed = tau_observed or (i_prev <= 0)
    return EstimateReport(
        regime="sir",
        m=m,
        point={"beta_hat": beta_hat, "gamma_hat": gamma_hat},
        inputs={
            "A_hat": a_hat,
            "B_hat": b_hat,
            "S_tilde": s_tilde,
            "i0": obs.i0,
            "r0": obs.r0,
            "c0": obs.c0,
            "n_known": n_known,
        },
        diagnostics={"tau_observed": tau_observed, "effective_m": len(terms)},
    )


def rate_band(beta: float, delta: float, z: float) -> tuple[float, float]:
    """Band [beta (1-delta) z^2 / (1+delta), beta (1+delta)/(1-delta)] that
    holds the estimator with the labeled probability."""
    return beta * (1 - delta) * z * z / (1 + delta), beta * (1 + delta) / (1 - delta)


def recovery_band(beta: float, gamma: float, delta: float, z: float) -> tuple[float, float]:
    lo = gamma * z / (1 + delta) + beta * ((1 - delta) * z - (1 + delta) ** 2) / ((1 + delta) * (1 - delta))
    hi = gamma / (1 - delta) + beta * (1 + delta - (1 - delta) ** 2 * z * z) / ((1 - delta) * (1 + delta))
    return lo, hi


def coverage_label(delta: float, z: float, m: int, i0: int, beta: float, gamma: float) -> float:
    """1 - 4 e^{-m (delta - log(1+delta))} - 4 e^{-m delta^2/(4+2 delta)}
    - 2 c1 e^{-c2 i0}, clamped at 0 (the last term, the stopping-time
    allowance, can exceed the rest at small starts)."""
    thr = compute_survival_threshold(beta, gamma)
    return max(
        1.0
        - 4.0 * math.exp(-m * (delta - math.log1p(delta)))
        - 4.0 * math.exp(-m * delta * delta / (4.0 + 2.0 * delta))
        - 2.0 * thr.c1 * math.exp(-thr.c2 * i0),
        0.0,
    )


def sir_confidence_intervals(
    report: EstimateReport,
    delta: float,
    n: float,
    m: int,
    c0: int,
    check_hypothesis: bool = True,
) -> dict:
    """Interval bands instantiated at the point estimates, with the
    coverage probability label attached.

    The hypothesis (beta/(beta+gamma)) z > p is checked at the point
    estimates; a violation is recorded as a warning flag, not an error.
    """
    if not 0 < delta < 1:
        raise ValidationError("delta must be in (0, 1)")
    beta_hat = report.point["beta_hat"]
    gamma_hat = report.point["gamma_hat"]
    i0 = report.inputs.get("i0", 1)
    z = (n - m - c0) / n
    beta_lo, beta_hi = rate_band(beta_hat, delta, z)
    gamma_lo, gamma_hi = recovery_band(beta_hat, gamma_hat, delta, z)

    hypothesis_ok = None
    if check_hypothesis and beta_hat > gamma_hat > 0:
        thr = compute_survival_threshold(beta_hat, gamma_hat)
        hypothesis_ok = (beta_hat / (beta_hat + gamma_hat)) * z > thr.p
    label = (
        coverage_label(delta, z, m, i0, beta_hat, gamma_hat)
        if beta_hat > gamma_hat > 0
        else None
    )
    intervals = {
        "beta": [beta_lo, beta_hi],
        "gamma": [gamma_lo, gamma_hi],
        "delta": delta,
        "z": z,
        "coverage_label": label,
        "hypothesis_ok": hypothesis_ok,
    }
    report.intervals = intervals
    report.inputs.update({"delta": delta, "z": z})
    return intervals


# ---------------------------------------------------------------------------
# Pure-adoption regime
# ---------------------------------------------------------------------------


def _clip_polygon(poly: list[tuple[float, float]], a: float, b: float, c: float):
    """Keep the part of a convex polygon with a*x + b*y <= c."""
    if not poly:
        return poly
    out = []
    npts = len(poly)
    for idx in range(npts):
        p = poly[idx]
        q = poly[(idx + 1) % npts]
        fp = a * p[0] + b * p[1] - c
        fq = a * q[0] + b * q[1] - c
        if fp <= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _polygon_centroid(poly: Sequence[tuple[float, float]]) -> tuple[float, float]:
    if len(poly) == 1:
        return poly[0]
    if len(poly) == 2:
        return ((poly[0][0] + poly[1][0]) / 2, (poly[0][1] + poly[1][1]) / 2)
    area2 = 0.0
    cx = cy = 0.0
    for idx in range(len(poly)):
        x0, y0 = poly[idx]
        x1, y1 = poly[(idx + 1) % len(poly)]
        cross = x0 * y1 - x1 * y0
        area2 += cross
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    if abs(area2) < 1e-300:
        xs = [p[0] for p in poly]
        ys = [p[1] for p in poly]
        return (sum(xs) / len(xs), sum(ys) / len(ys))
    return (cx / (3 * area2), cy / (3 * area2))


def bass_pair_sums(times: np.ndarray) -> dict[int, float]:
    """S_k = sum_{i=1}^{k/2} min(T_i, T_{k-i}) for every even k <= len(times)."""
    m = len(times)
    out = {}
    for k in range(2, m + 1, 2):
        half = k // 2
        # pairs (T_i, T_{k-i}) for i = 1..k/2, zero-indexed into times
        out[k] = float(np.sum(np.minimum(times[:half], times[k - half - 1 : k - 1][::-1])))
    return out


def estimate_bass(obs: ObservationSet, n_known: float, c1: float = 2.0) -> EstimateReport:
    """Joint (a, beta) estimate by exact slab intersection.

    Every even prefix k contributes the constraint
    |k/(2 S_k) - (2 a + k beta)| <= c1 * (k/(2 S_k)) * (m/n + sqrt(log n / m));
    the feasible set is intersected as halfplanes over the non-negative
    quadrant and the centroid is reported.  An empty intersection falls
    back to the least-squares center, flagged as infeasible.
    """
    m = obs.m
    if m % 2 != 0:
        raise ValidationError("m must be even")
    if m < 2:
        raise ValidationError("need at least two observations")
    times = obs.inter_arrivals()
    if not np.all(np.isfinite(times)):
        raise ValidationError("observation horizon crosses the stopping time")
    sums = bass_pair_sums(times)
    return estimate_bass_from_sums(sums, m, n_known, c1)


def estimate_bass_from_sums(
    sums: dict[int, float], m: int, n_known: float, c1: float = 2.0
) -> EstimateReport:
    """Slab intersection on precomputed pair sums S_k (even k)."""
    if all(s == 0 for s in sums.values()):
        raise ValidationError("all pair sums are zero")
    rel_radius = c1 * (m / n_known + math.sqrt(math.log(n_known) / m))
    ks = sorted(sums)
    ys = {k: k / (2.0 * sums[k]) for k in ks if sums[k] > 0}

    bound = max(ys.values()) * (1.0 + rel_radius)
    poly = [(0.0, 0.0), (bound, 0.0), (bound, bound), (0.0, bound)]
    for k in ks:
        if k not in ys:
            continue
        y = ys[k]
        r = rel_radius * y
        poly = _clip_polygon(poly, 2.0, float(k), y + r)
        poly = _clip_polygon(poly, -2.0, -float(k), -(y - r))
        if not poly:
            break

    feasible = bool(poly)
    if feasible:
        a_hat, beta_hat = _polygon_centroid(poly)
        xs = [pt[0] for pt in poly]
        bs = [pt[1] for pt in poly]
        a_range = [min(xs), max(xs)]
        beta_range = [min(bs), max(bs)]
    else:
        a_hat, beta_hat = _weighted_center(ys)
        a_range = beta_range = None

    width = (a_range[1] - a_range[0]) if a_range else math.inf
    return EstimateReport(
        regime="bass",
        m=m,
        point={"a_hat": a_hat, "beta_hat": beta_hat},
        inputs={
            "pair_sums": {str(k): sums[k] for k in ks},
            "rel_radius": rel_radius,
            "n_known": n_known,
            "c1": c1,
        },
        diagnostics={
            "feasible": feasible,
            "a_range": a_range,
            "beta_range": beta_range,
            "a_identifiable": feasible and width <= max(a_hat, 1e-300),
            "tau_observed": False,
        },
    )


def _weighted_center(ys: dict[int, float]) -> tuple[float, float]:
    """Least-squares center of y_k = 2a + k b, clamped to the quadrant.

    y_k fluctuates with standard deviation about (2a + k b) sqrt(2/k), so a
    first unweighted pass on the concentrated top half of the prefixes sets
    the scale for an inverse-variance second pass over all of them.
    """
    ks = np.array(sorted(ys), dtype=float)
    vals = np.array([ys[int(k)] for k in ks])
    top = ks >= ks[len(ks) // 2]
    design = np.column_stack([np.full(ks.shape, 2.0), ks])
    sol, *_ = np.linalg.lstsq(design[top], vals[top], rcond=None)
    scale = np.maximum(design @ np.maximum(sol, 0.0), 1e-300) * np.sqrt(2.0 / ks)
    sol, *_ = np.linalg.lstsq(design / scale[:, None], vals / scale, rcond=None)
    return float(max(sol[0], 0.0)), float(max(sol[1], 0.0))


def bass_pair_rates(n: float, beta: float, a: float, k: int) -> np.ndarray:
    """Rates of the pair minima min(T_i, T_{k-i}) for i = 1..k/2:
    (2a + beta k) - (a + i beta) i/n - (a + (k-i) beta)(k-i)/n."""
    i = np.arange(1, k // 2 + 1, dtype=float)
    return (
        (2.0 * a + beta * k)
        - (a + i * beta) * i / n
        - (a + (k - i) * beta) * (k - i) / n
    )


# ---------------------------------------------------------------------------
# Expected jump times and peak indices
# ---------------------------------------------------------------------------


def bass_expected_jump_time(n: float, p: float, beta: float, i: int) -> float:
    """E[T_i] = n / ((p n + beta i)(n - i)) for the i-th jump, 1 <= i < n."""
    if not 1 <= i < n:
        raise ValidationError("index must satisfy 1 <= i < n")
    return n / ((p * n + beta * i) * (n - i))


def _sum_expected_times(n: float, p: float, beta: float, count: int, exact_threshold: int = 10_000_000) -> float:
    """sum_{i=1}^{count} E[T_i]; exact pairwise summation up to the
    threshold, after that the closed-form integral of
    f(x) = n/((p n + beta x)(n - x)) with Euler-Maclaurin endpoint
    corrections (f is monotone on the summed range, so the remainder is
    bounded by the first omitted derivative term)."""
    if count < 1:
        return 0.0
    if count <= exact_threshold:
        i = np.arange(1, count + 1, dtype=float)
        return float(np.sum(n / ((p * n + beta * i) * (n - i))))

    def antiderivative(x: float) -> float:
        return (math.log(p * n + beta * x) - math.log(n - x)) / (p + beta)

    def f(x: float) -> float:
        return n / ((p * n + beta * x) * (n - x))

    def fprime(x: float) -> float:
        g = (p * n + beta * x) * (n - x)
        gp = beta * (n - x) - (p * n + beta * x)
        return -n * gp / (g * g)

    return (
        antiderivative(count)
        - antiderivative(1.0)
        + 0.5 * (f(1.0) + f(count))
        + (fprime(count) - fprime(1.0)) / 12.0
    )


def bass_peak_indices(n: float, p: float, beta: float) -> tuple[int, int]:
    """(k_cr, k_star): the index ceil(n^(2/3)) past which the population
    becomes estimable, and the first index k >= 2 at which the expected
    holding time stops decreasing.  E[T_k] >= E[T_{k-1}] exactly when
    k >= ((1 - p/beta) n + 1)/2, so k_star = max(2, ceil(((1 - p/beta) n + 1)/2)).
    That is 2 whenever p >= beta, which is tested first so that beta = 0
    is never divided by.
    """
    k_cr = math.ceil(n ** (2.0 / 3.0))
    k_star = 2 if p >= beta else max(2, math.ceil(((1.0 - p / beta) * n + 1.0) / 2.0))
    return k_cr, k_star


def bass_time_ratio(n: float, p: float, beta: float) -> float:
    """Exact ratio of expected times E[t_{k_cr}] / E[t_{k_star}], evaluated
    as partial sums of the expected holding times (integral proxy beyond
    1e7 terms)."""
    if not p < beta:
        raise ValidationError("requires p < beta")
    k_cr, k_star = bass_peak_indices(n, p, beta)
    num = _sum_expected_times(n, p, beta, k_cr - 1)
    den = _sum_expected_times(n, p, beta, k_star - 1)
    return num / den
