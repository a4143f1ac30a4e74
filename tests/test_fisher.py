import math

import numpy as np
import pytest

from difflim.core import ModelParams, Regime, RngStream, ValidationError
from difflim.fisher import (
    compute_survival_threshold,
    cramer_rao_rel_error,
    fisher_bass,
    fisher_sir_exact,
    fisher_sir_mc,
    highprob_rate_condition,
    score_variance_oracle,
    sir_bracket,
)
from reference_kernels import reference_score_variance_oracle

SIR_SMALL = ModelParams(n=200, beta=0.5, gamma=0.25, regime=Regime.SIR)


def test_fisher_bass_two_term_sums():
    # pre-jump indexing: terms 1^2/9^2 and 2^2/8^2 over n^2 = 100
    exact = fisher_bass(10, 1, 2)
    assert exact.total == pytest.approx((1 / 81 + 4 / 64) / 100, rel=1e-12)
    # post-jump (shifted) indexing: terms 2^2/8^2 and 3^2/7^2
    shifted = fisher_bass(10, 1, 2, shifted=True)
    assert shifted.total == pytest.approx((4 / 64 + 9 / 49) / 100, rel=1e-12)
    assert shifted.total == pytest.approx(2.4617e-3, rel=1e-4)
    assert cramer_rao_rel_error(shifted) == pytest.approx(4.062, rel=1e-3)


def test_fisher_bass_empty_horizon():
    rep = fisher_bass(10, 1, 0)
    assert rep.total == 0.0
    assert math.isinf(rep.cr_floor)
    assert math.isinf(cramer_rao_rel_error(rep))


def test_fisher_bass_horizon_exceeds_population():
    with pytest.raises(ValidationError, match="exceeds population"):
        fisher_bass(10, 1, 9)


def test_fisher_bass_scaling_window():
    """J n^4 / m^3 stays in [1/4, 4] for m = ceil(n^(2/3))."""
    ratios = []
    for n in [1e3, 1e4, 1e5]:
        m = math.ceil(n ** (2 / 3))
        ratios.append(fisher_bass(n, 1, m).scaling_ratio)
    assert all(0.25 <= r <= 4.0 for r in ratios)
    assert max(ratios) / min(ratios) < 2.0


def test_per_k_nonnegative_and_total_consistent():
    rep = fisher_bass(1000, 1, 100)
    assert np.all(rep.per_k >= 0)
    assert rep.total == pytest.approx(math.fsum(rep.per_k), rel=0, abs=0)
    assert rep.cr_floor * rep.n**2 * rep.total == pytest.approx(1.0, rel=1e-15)


def test_cr_floor_monotone_in_m():
    floors = [cramer_rao_rel_error(fisher_bass(10_000, 1, m)) for m in (50, 100, 200, 400)]
    assert all(f2 < f1 for f1, f2 in zip(floors, floors[1:]))


def test_unlearnable_region_floor_above_one():
    # floor > 1 whenever m^3 < n^2/4 (here comfortably so)
    n = 1e6
    m = 1000  # m^3 = 1e9 < n^2/4 = 2.5e11
    assert cramer_rao_rel_error(fisher_bass(n, 1, m)) > 1.0


def test_exponential_leg_reparameterization():
    """The per-term value equals (dlambda/dn)^2 / lambda^2 with the rate
    lambda(n) = (beta (k+i0) + a)(n - k - i0)/n and a held fixed, checked
    by central finite differences at random points."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = float(rng.uniform(200, 5000))
        k = int(rng.integers(1, 50))
        i0 = int(rng.integers(1, 5))
        beta = float(rng.uniform(0.1, 1.0))
        a = float(rng.uniform(0.0, 2.0))

        def lam(nn):
            return (beta * (k + i0) + a) * (nn - k - i0) / nn

        h = n * 1e-6
        dlam = (lam(n + h) - lam(n - h)) / (2 * h)
        expected = (k + i0) ** 2 / (n**2 * (n - k - i0) ** 2)
        assert dlam**2 / lam(n) ** 2 == pytest.approx(expected, rel=1e-6)


def test_bracket_monotone_below_half_population():
    n = 1000.0
    cs = np.arange(1, 500)
    vals = sir_bracket(cs, n, 0.5, 0.25)
    assert np.all(np.diff(vals) > 0)
    assert np.all(vals > 0)


def test_sir_mc_matches_exact_recursion():
    mc = fisher_sir_mc(SIR_SMALL, i0=5, r0=0, m=50, replicates=20_000, rng=RngStream(seed=3))
    exact = fisher_sir_exact(SIR_SMALL, i0=5, r0=0, m=50)
    assert abs(mc.total - exact.total) < 3 * mc.mc_stderr
    # survival curves agree pointwise within a loose binomial band
    band = 4 * np.sqrt(np.maximum(exact.survival * (1 - exact.survival), 1e-6) / 20_000)
    assert np.all(np.abs(mc.survival - exact.survival) <= band + 1e-12)


def test_sir_mc_gamma_zero_equals_bass_sum():
    """With gamma = 0 every jump is an infection and the count path is
    deterministic, so the Monte-Carlo sum collapses to the exact one."""
    params = ModelParams(n=500, beta=0.5, gamma=0.0, p=0.0, regime=Regime.SIR)
    mc = fisher_sir_mc(params, i0=3, r0=0, m=40, replicates=200, rng=RngStream(seed=1))
    bass = fisher_bass(500, 3, 40)
    assert mc.total == pytest.approx(bass.total, rel=1e-12)
    assert mc.mc_stderr == pytest.approx(0.0, abs=1e-18)


def test_sir_exact_lower_bound_under_hypotheses():
    """J >= (1/2) sum ((k-1+i0+2r0)/2)^2 / (n^3 (n + (gamma/beta) n)) when
    the rate condition holds and i0 clears the survival threshold."""
    params = ModelParams(n=1500, beta=0.5, gamma=0.25, regime=Regime.SIR)
    thr = compute_survival_threshold(0.5, 0.25)
    i0 = math.ceil(thr.d)
    m = 120
    assert params.n > 2 * (m + i0)
    assert highprob_rate_condition(params, m, i0)
    exact = fisher_sir_exact(params, i0=i0, r0=0, m=m)
    n = params.n
    ks = np.arange(1, m + 1)
    lower = 0.5 * np.sum(((ks - 1 + i0) / 2.0) ** 2) / (n**3 * (n + 0.5 * n))
    assert exact.total >= lower


def test_score_oracle_matches_bass_within_tolerance():
    """Five parameter points, 1e5 replicates each, 5 percent agreement."""
    points = [(200, 1, 30), (500, 2, 40), (1000, 1, 100), (2000, 3, 80), (10_000, 1, 464)]
    for n, i0, m in points:
        params = ModelParams(n=n, beta=0.5, gamma=0.0, p=1.0 / n, regime=Regime.BASS)
        j_est, _ = score_variance_oracle(params, i0, 0, m, replicates=100_000, rng=RngStream(seed=5))
        exact = fisher_bass(n, i0, m).total
        assert abs(j_est - exact) / exact < 0.05


def test_score_oracle_matches_sir_mc():
    params = SIR_SMALL
    j_est, j_se = score_variance_oracle(params, i0=5, r0=0, m=50, replicates=40_000, rng=RngStream(seed=11))
    mc = fisher_sir_mc(params, i0=5, r0=0, m=50, replicates=20_000, rng=RngStream(seed=12))
    combined = math.hypot(j_se, mc.mc_stderr)
    assert abs(j_est - mc.total) < 2 * combined


def test_score_oracle_h_robustness():
    params = ModelParams(n=500, beta=0.5, gamma=0.0, p=1.0 / 500, regime=Regime.BASS)
    j1, se1 = score_variance_oracle(params, 1, 0, 50, replicates=30_000, rng=RngStream(seed=21), h=500 * 1e-4)
    j2, _ = score_variance_oracle(params, 1, 0, 50, replicates=30_000, rng=RngStream(seed=21), h=500 * 5e-5)
    assert abs(j1 - j2) < se1


@pytest.mark.parametrize(
    "params, i0, r0, m, reps, chunk",
    [
        (ModelParams(n=1000, beta=0.5, gamma=0.0, p=0.001, regime=Regime.BASS), 1, 0, 100, 3000, 20000),
        (ModelParams(n=2000, beta=0.5, gamma=0.0, p=5e-4, regime=Regime.BASS), 1, 0, 80, 2500, 1000),
        (ModelParams(n=500, beta=0.5, gamma=0.25, regime=Regime.SIR), 10, 0, 40, 3000, 20000),
        (ModelParams(n=200, beta=0.5, gamma=0.4, regime=Regime.SIR), 1, 0, 60, 2500, 20000),
        (ModelParams(n=300, beta=0.6, gamma=0.2, p=0.01), 3, 1, 50, 2000, 20000),
    ],
    ids=["bass", "bass-chunked", "sir", "sir-extinction", "general"],
)
def test_score_oracle_matches_reference_bit_for_bit(params, i0, r0, m, reps, chunk):
    """The hoisted, in-place oracle returns the very (j, se) of the
    per-call version it replaced."""
    rng = RngStream(seed=5, stream_id=1)
    got = score_variance_oracle(params, i0, r0, m, reps, rng, chunk=chunk)
    want = reference_score_variance_oracle(params, i0, r0, m, reps, rng, chunk=chunk)
    assert got == want


def test_survival_threshold_values():
    thr = compute_survival_threshold(0.5, 0.25)
    assert thr.p == pytest.approx(7.0 / 12.0, rel=1e-12)
    assert thr.c2 == pytest.approx(0.5 - 1.0 / (4 * 7 / 12), rel=1e-12)
    # c1 against a directly summed series (independent of the closed form)
    q_k = [math.exp(-(thr.p * k / 2) * (1 - 1 / (2 * thr.p)) ** 2) for k in range(1, 20_000)]
    assert thr.c1 == pytest.approx(math.fsum(q_k), rel=1e-9)
    # d solves c1 exp(-c2 d) = 1/2
    assert thr.c1 * math.exp(-thr.c2 * thr.d) == pytest.approx(0.5, rel=1e-12)


def test_survival_threshold_monotone_in_rate_ratio():
    ds = [compute_survival_threshold(ratio * 0.25, 0.25).d for ratio in (1.5, 2, 4, 8)]
    assert all(d2 < d1 for d1, d2 in zip(ds, ds[1:]))


def test_survival_threshold_requires_supercritical():
    with pytest.raises(ValidationError):
        compute_survival_threshold(0.25, 0.5)


def test_survival_probability_at_threshold_start():
    """Empirical survival over the horizon stays above 1/2 (minus noise)
    when the start clears the threshold and the rate condition holds."""
    from difflim.simulate import simulate_paths

    beta, gamma = 0.5, 0.25
    thr = compute_survival_threshold(beta, gamma)
    i0 = math.ceil(thr.d)
    params = ModelParams(n=10_000, beta=beta, gamma=gamma, regime=Regime.SIR)
    m, reps = 1000, 5000
    assert highprob_rate_condition(params, m, i0)
    block = simulate_paths(params, i0=i0, r0=0, m=m, rng=RngStream(seed=2), replicates=reps)
    survival = float(np.mean(block.alive[m]))
    assert survival >= 0.5 - 3 * math.sqrt(0.25 / reps)


def test_fisher_sir_mc_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        fisher_sir_mc(SIR_SMALL, i0=1, r0=0, m=10, replicates=50, rng=RngStream(seed=0))
    bass = ModelParams(n=100, beta=0.5, gamma=0.0, p=0.1, regime=Regime.BASS)
    with pytest.raises(ValidationError):
        fisher_sir_mc(bass, i0=1, r0=0, m=10, replicates=200, rng=RngStream(seed=0))


def test_report_serialization_round_trip():
    rep = fisher_bass(100, 1, 10)
    obj = rep.to_json_dict()
    assert obj["total"] == rep.total
    assert len(obj["per_k"]) == 10
