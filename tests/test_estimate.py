import math
from fractions import Fraction

import numpy as np
import pytest

from difflim.core import ModelParams, ObservationSet, Regime, RngStream, ValidationError
from difflim.estimate import (
    bass_expected_jump_time,
    bass_pair_rates,
    bass_pair_sums,
    bass_peak_indices,
    bass_time_ratio,
    coverage_label,
    estimate_bass,
    estimate_bass_from_sums,
    estimate_sir,
    rate_band,
    recovery_band,
    sir_confidence_intervals,
    _sum_expected_times,
)
from difflim.simulate import SimSpec, simulate_ledger, simulate_paths

from reference_kernels import reference_scan_peak_index


def _obs(i0, r0, samples):
    return ObservationSet(i0=i0, r0=r0, samples=tuple(samples))


def test_estimate_sir_all_infections_unit_rates():
    """Every jump an infection and I_{k-1} T_k = 1 for all k gives
    beta_hat = 1, gamma_hat = 0."""
    m = 10
    samples = []
    i = 1
    c = 1
    for k in range(1, m + 1):
        samples.append((1.0 / i, c + 1))
        c += 1
        i += 1
    obs = _obs(1, 0, samples)
    rep = estimate_sir(obs)
    assert rep.point["beta_hat"] == pytest.approx(1.0, rel=1e-12)
    assert rep.point["gamma_hat"] == pytest.approx(0.0, abs=1e-12)
    assert not rep.diagnostics["tau_observed"]


def test_estimate_sir_identities():
    params = ModelParams(n=5000, beta=0.5, gamma=0.25, regime=Regime.SIR)
    ledger = simulate_ledger(SimSpec(params=params, i0=20, r0=0, max_jumps=400, rng=RngStream(seed=3)))
    obs = ObservationSet.from_ledger(ledger)
    rep = estimate_sir(obs)
    a_hat, b_hat = rep.inputs["A_hat"], rep.inputs["B_hat"]
    beta_hat, gamma_hat = rep.point["beta_hat"], rep.point["gamma_hat"]
    assert beta_hat * b_hat == pytest.approx(a_hat, rel=1e-12)
    assert (beta_hat + gamma_hat) * b_hat == pytest.approx(1.0, rel=1e-12)
    assert beta_hat + gamma_hat == pytest.approx(obs.m / rep.inputs["S_tilde"], rel=1e-12)


def test_estimate_sir_truncates_at_stopping_time():
    params = ModelParams(n=100, beta=0.1, gamma=5.0, regime=Regime.SIR)
    ledger = simulate_ledger(SimSpec(params=params, i0=1, r0=0, max_jumps=10, rng=RngStream(seed=1)))
    assert ledger.terminated_at is not None
    obs = ObservationSet.from_ledger(ledger)
    rep = estimate_sir(obs)
    assert rep.diagnostics["tau_observed"]
    assert rep.diagnostics["effective_m"] == ledger.terminated_at


def test_estimate_sir_consistency_on_synthetic_runs():
    """Median relative error at m = 1e4 and n = 1e6 is tiny for both
    rates."""
    params = ModelParams(n=1e6, beta=0.5, gamma=0.25, regime=Regime.SIR)
    block = simulate_paths(params, i0=40, r0=0, m=10_000, rng=RngStream(seed=2), replicates=50)
    errs_b, errs_g = [], []
    for col in range(50):
        samples = [(block.T[k, col], int(block.C[k + 1, col])) for k in range(10_000)]
        rep = estimate_sir(_obs(40, 0, samples))
        errs_b.append((rep.point["beta_hat"] - 0.5) ** 2 / 0.25)
        errs_g.append((rep.point["gamma_hat"] - 0.25) ** 2 / 0.0625)
    assert np.median(errs_b) < 5e-4
    assert np.median(errs_g) < 1e-3


def test_estimate_sir_rejects_degenerate():
    with pytest.raises(ValidationError):
        estimate_sir(_obs(1, 0, []))
    with pytest.raises(ValidationError, match="degenerate duration"):
        estimate_sir(_obs(1, 0, [(0.0, 2)]))


def test_bands_collapse_as_delta_to_zero():
    lo, hi = rate_band(0.5, 1e-9, 1.0)
    assert lo == pytest.approx(0.5, rel=1e-8)
    assert hi == pytest.approx(0.5, rel=1e-8)
    lo_g, hi_g = recovery_band(0.5, 0.25, 1e-9, 1.0)
    assert lo_g == pytest.approx(0.25, rel=1e-6)
    assert hi_g == pytest.approx(0.25, rel=1e-6)


def test_confidence_intervals_contain_point_estimates():
    params = ModelParams(n=1e5, beta=0.5, gamma=0.25, regime=Regime.SIR)
    ledger = simulate_ledger(SimSpec(params=params, i0=82, r0=0, max_jumps=1000, rng=RngStream(seed=9)))
    obs = ObservationSet.from_ledger(ledger)
    rep = estimate_sir(obs)
    delta = math.sqrt(5 * math.log(obs.m) / obs.m)
    intervals = sir_confidence_intervals(rep, delta, 1e5, obs.m, obs.c0)
    b_lo, b_hi = intervals["beta"]
    g_lo, g_hi = intervals["gamma"]
    assert b_lo <= rep.point["beta_hat"] <= b_hi
    assert g_lo <= rep.point["gamma_hat"] <= g_hi
    assert intervals["hypothesis_ok"]
    assert 0 <= intervals["coverage_label"] < 1


def test_confidence_interval_width_scaling():
    """The recovery band width shrinks like sqrt(log m / m): quadrupling m
    halves it up to the log correction, within 20 percent."""
    beta, gamma, n, c0 = 0.5, 0.25, 1e6, 82

    def width(m):
        delta = math.sqrt(5 * math.log(m) / m)
        z = (n - m - c0) / n
        lo, hi = recovery_band(beta, gamma, delta, z)
        return hi - lo

    m = 1000
    ratio = width(m) / width(4 * m)
    ideal = 2.0 * math.sqrt(math.log(4 * m) / math.log(m) / 4) * 2  # = 2 sqrt(log 4m / log m)
    assert ratio == pytest.approx(ideal, rel=0.2)


def test_confidence_interval_rejects_bad_delta():
    rep = estimate_sir(_obs(1, 0, [(1.0, 2), (0.5, 3)]))
    with pytest.raises(ValidationError):
        sir_confidence_intervals(rep, 1.5, 100, 2, 1)


def test_bass_pair_sums_definition():
    times = np.array([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
    sums = bass_pair_sums(times)
    assert sums[2] == pytest.approx(min(3.0, 3.0))
    assert sums[4] == pytest.approx(min(3.0, 4.0) + min(1.0, 1.0))
    assert sums[6] == pytest.approx(min(3.0, 9.0) + min(1.0, 1.5) + min(4.0, 4.0))


def test_bass_noiseless_recovery_within_slabs():
    """Pair sums replaced by their exact means recover the truth inside
    every slab."""
    n, beta, a, m = 1e6, 0.5, 1.0, 200
    sums = {k: float(np.sum(1.0 / bass_pair_rates(n, beta, a, k))) for k in range(2, m + 1, 2)}
    rep = estimate_bass_from_sums(sums, m, n_known=n, c1=2.0)
    assert rep.diagnostics["feasible"]
    a_lo, a_hi = rep.diagnostics["a_range"]
    b_lo, b_hi = rep.diagnostics["beta_range"]
    assert a_lo <= a <= a_hi
    assert b_lo <= beta <= b_hi
    assert rep.point["beta_hat"] == pytest.approx(beta, rel=0.25)


def test_bass_estimator_on_simulated_paths():
    """On real draws the imitation-rate estimate achieves the log(n)/m
    error scale (median over replicates); the slab system may be empty at
    the default constant, in which case the flagged fallback must carry
    the weight."""
    n, beta, a = 1e6, 0.5, 1.0
    params = ModelParams(n=n, beta=beta, gamma=0.0, p=a / n, regime=Regime.BASS)
    m, reps = 400, 60
    block = simulate_paths(params, i0=1, r0=0, m=m, rng=RngStream(seed=31), replicates=reps)
    errs = []
    for col in range(reps):
        samples = [(block.T[k, col], int(block.C[k + 1, col])) for k in range(m)]
        rep = estimate_bass(_obs(1, 0, samples), n_known=n)
        assert isinstance(rep.diagnostics["feasible"], bool)
        errs.append((rep.point["beta_hat"] - beta) ** 2 / beta**2)
    # log(n)/m = 0.035 here; allow a generous constant
    assert np.median(errs) < 4 * math.log(n) / m


def test_bass_low_innovation_not_identifiable():
    """With p/beta of order 1/n the feasible range for a is wider than the
    estimate itself."""
    n, beta, m = 1e6, 0.5, 200
    a = beta  # alpha = 1 regime
    sums = {k: float(np.sum(1.0 / bass_pair_rates(n, beta, a, k))) for k in range(2, m + 1, 2)}
    rep = estimate_bass_from_sums(sums, m, n_known=n, c1=2.0)
    assert not rep.diagnostics["a_identifiable"]


def test_bass_estimator_input_validation():
    with pytest.raises(ValidationError, match="even"):
        estimate_bass(_obs(1, 0, [(1.0, 2)]), n_known=100)
    with pytest.raises(ValidationError, match="stopping"):
        estimate_bass(_obs(1, 0, [(1.0, 2), (math.inf, 2)]), n_known=100)
    with pytest.raises(ValidationError, match="zero"):
        estimate_bass_from_sums({2: 0.0, 4: 0.0}, 4, n_known=100)


def test_expected_jump_time_formula_and_sampling():
    n, p, beta = 500.0, 0.002, 0.5
    assert bass_expected_jump_time(n, p, beta, 1) == pytest.approx(n / ((p * n + beta) * (n - 1)))
    with pytest.raises(ValidationError):
        bass_expected_jump_time(n, p, beta, 500)
    # Monte-Carlo check through the event simulator
    params = ModelParams(n=n, beta=beta, gamma=0.0, p=p, regime=Regime.BASS)
    m, reps = 30, 3000
    block = simulate_paths(params, i0=1, r0=0, m=m, rng=RngStream(seed=14), replicates=reps)
    for idx in (0, 9, 29):
        expected = bass_expected_jump_time(n, p, beta, idx + 1)
        sample = block.T[idx]
        se = sample.std(ddof=1) / math.sqrt(reps)
        assert abs(sample.mean() - expected) < 3 * se


def test_expected_jump_time_dip_location():
    """E[T_i] decreases then increases, with the minimum near
    (1 - p/beta) n / 2."""
    n, beta = 10_000.0, 0.5
    p = 0.1 * beta
    vals = np.array([bass_expected_jump_time(n, p, beta, i) for i in range(1, int(n))])
    arg = int(np.argmin(vals)) + 1
    assert abs(arg - (1 - p / beta) * n / 2) <= 1.0
    assert np.all(np.diff(vals[: arg - 1]) < 0)
    assert np.all(np.diff(vals[arg - 1 :]) > 0)


def _expected_time_exact(n, p, beta, k):
    """E[T_k] of the float inputs in exact rational arithmetic."""
    n, p, beta = Fraction(n), Fraction(p), Fraction(beta)
    return n / ((p * n + beta * k) * (n - k))


def test_peak_indices_closed_form_and_scan():
    """k_star = max(2, ceil(((1 - p/beta) n + 1)/2)) is the definitional
    scan's first k >= 2 with E[T_k] >= E[T_{k-1}], on a grid that includes
    p >= beta and (1 - p/beta) n < 1.  Both are float evaluations, so at a
    tie (1 - p/beta) n + 1 = 2k, where E[T_k] = E[T_{k-1}] but for the
    rounding of p, they can round differently: at the grid's three tie
    points the scan says k and the closed form k + 1, and the exact
    rational comparison of the float inputs sides with the closed form."""
    assert bass_peak_indices(100, 0.25, 0.5) == (22, 26)
    assert bass_peak_indices(1e6, 1e-3, 0.5)[0] == 10_000
    rng = np.random.default_rng(0)
    grid = [(50.0, 0.94), (100.0, 0.95), (1000.0, 0.997)]  # ties: (1 - p/beta) n + 1 = 2k
    for n in [3.0, 4.0, 5.0, 10.0, 20.5, 50.0, 101.0, 1000.0, 12_345.0, 1e5]:
        edges = [1 - 0.5 / n, 1 - 0.99 / n, 1 - 1.5 / n, 1 - 2 / n, 1.0, 1.5, 1e3, 1 / n]
        grid += [(n, ratio) for ratio in [*edges, *rng.uniform(0.0, 1.0, 12)]]
    ties = 0
    for n, ratio in grid:
        beta = 0.5
        p = ratio * beta
        k_star = bass_peak_indices(n, p, beta)[1]
        scan = reference_scan_peak_index(n, p, beta)
        if ratio >= 1 or (1 - p / beta) * n < 1:
            assert k_star == scan == 2, (n, ratio)
        if k_star != scan:
            ties += 1
            lo = min(k_star, scan)
            assert abs(k_star - scan) == 1, (n, ratio)
            t_lo, t_prev = bass_expected_jump_time(n, p, beta, lo), bass_expected_jump_time(n, p, beta, lo - 1)
            assert abs(t_lo - t_prev) <= 4e-16 * t_lo, (n, ratio)
            exact = _expected_time_exact(n, p, beta, lo) >= _expected_time_exact(n, p, beta, lo - 1)
            assert k_star == (lo if exact else lo + 1), (n, ratio)
    assert ties == 3


def test_peak_index_is_two_when_p_reaches_beta():
    """For p >= beta the holding times increase from the first jump, so
    k_star is 2 at every n, including n past the scan's old 5e7 limit."""
    for n in [3.0, 10.0, 1000.0, 4e7]:
        for ratio in [1.0, 1.5, 1e3]:
            assert bass_peak_indices(n, ratio * 0.5, 0.5)[1] == 2
            assert reference_scan_peak_index(n, ratio * 0.5, 0.5) == 2
    assert bass_peak_indices(1e10, 0.9, 0.5) == (math.ceil(1e10 ** (2 / 3)), 2)
    assert bass_peak_indices(1000, 0.1, 0.0)[1] == 2


def test_sum_proxy_matches_exact():
    n, p, beta = 1e6, 0.5 / 1e6, 0.5
    exact = _sum_expected_times(n, p, beta, 400_000)
    proxy = _sum_expected_times(n, p, beta, 400_000, exact_threshold=10)
    assert proxy == pytest.approx(exact, rel=1e-4)


def test_time_ratio_limits():
    # alpha = 1: increasing toward 2/3
    vals = [bass_time_ratio(n, 0.5 / n, 0.5) for n in (1e4, 1e6, 1e8, 1e10)]
    assert all(0 < v < 1 for v in vals)
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    assert abs(vals[-1] - 2 / 3) < 0.05
    # alpha = 2/3: near 1/2
    v = bass_time_ratio(1e8, 0.5 / 1e8 ** (2 / 3), 0.5)
    assert abs(v - 0.5) < 0.02
    # alpha = 1/4: decaying toward 0
    small = [bass_time_ratio(n, 0.5 / n**0.25, 0.5) for n in (1e4, 1e6, 1e8)]
    assert all(v2 < v1 for v1, v2 in zip(small, small[1:]))
    assert small[-1] < 0.05


def test_time_ratio_requires_subcritical_innovation():
    with pytest.raises(ValidationError):
        bass_time_ratio(1000, 0.6, 0.5)


def test_coverage_label_monotone_in_i0():
    l1 = coverage_label(0.1, 0.99, 1000, 40, 0.5, 0.25)
    l2 = coverage_label(0.1, 0.99, 1000, 120, 0.5, 0.25)
    assert l2 > l1
