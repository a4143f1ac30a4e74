import math
import tracemalloc

import numpy as np
import pytest

from difflim.core import ModelParams, Regime, RngStream, ValidationError
from difflim.fisher import (
    MC_CHUNK,
    compute_survival_threshold,
    cramer_rao_rel_error,
    fisher_bass,
    fisher_sir_exact,
    fisher_sir_mc,
    highprob_rate_condition,
    score_variance_oracle,
    sir_bracket,
)
from reference_kernels import (
    fsum_score_variance_oracle,
    reference_fisher_sir_mc,
    reference_score_variance_oracle,
)

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
        # Chunks of 1025, 1025 and 499 replicates: odd R on both sides of
        # the R at which gamma = 0 skips the unread jump-type uniforms.
        (ModelParams(n=1000, beta=0.5, gamma=0.0, p=0.001, regime=Regime.BASS), 2, 0, 60, 2549, 1025),
        # Chunks of 1025, 1025 and 1: a one-column chunk's rows are summed
        # pairwise, as sum(axis=0) sums a single column.
        (ModelParams(n=1000, beta=0.5, gamma=0.0, p=0.001, regime=Regime.BASS), 2, 0, 60, 2051, 1025),
        (ModelParams(n=500, beta=0.5, gamma=0.25, regime=Regime.SIR), 10, 0, 40, 1201, 300),
    ],
    # gamma = 0 reads only the holding-time uniforms: "bass" (R = 3000) skips
    # the others, "bass-chunked" (R = 1000 and 500) draws them in blocks.
    ids=["bass", "bass-chunked", "sir", "sir-extinction", "general", "bass-odd-R",
         "bass-one-column-chunk", "sir-one-column-chunk"],
)
def test_score_oracle_matches_reference_bit_for_bit(params, i0, r0, m, reps, chunk):
    """The oracle, which takes one difference per term, returns the (j, se)
    of the version that summed loglik(n + h) and loglik(n - h) apart, up to
    that version's cancellation error (at most 5.2e-11 relative here)."""
    rng = RngStream(seed=5, stream_id=1)
    got = score_variance_oracle(params, i0, r0, m, reps, rng, chunk=chunk)
    want = reference_score_variance_oracle(params, i0, r0, m, reps, rng, chunk=chunk)
    assert got == pytest.approx(want, rel=1e-9, abs=0)


@pytest.mark.parametrize(
    "params, i0, r0, m, reps",
    [
        (ModelParams(n=1000, beta=0.5, gamma=0.0, p=0.001, regime=Regime.BASS), 1, 0, 100, 3000),
        (ModelParams(n=1e4, beta=0.5, gamma=0.0, p=1e-4, regime=Regime.BASS), 1, 0, 464, 3000),
        (ModelParams(n=1e4, beta=0.5, gamma=0.25, regime=Regime.SIR), 82, 0, 465, 2000),
        (ModelParams(n=300, beta=0.6, gamma=0.2, p=0.01), 3, 1, 50, 2000),
    ],
    ids=["bass", "bass-workload-n", "sir-workload-n", "general"],
)
def test_score_oracle_sums_are_exact_to_1e_12(params, i0, r0, m, reps):
    """Against an fsum of the same per-step terms, (j, se) is within 1e-12
    relative, gamma = 0 or not (measured: at most 2.2e-16 on these and 14
    more cases).  Summing loglik(n + h) and loglik(n - h) apart was off by
    up to 1.4e-9 on these."""
    rng = RngStream(seed=5, stream_id=1)
    got = score_variance_oracle(params, i0, r0, m, reps, rng)
    want = fsum_score_variance_oracle(params, i0, r0, m, reps, rng)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_score_oracle_refuses_unusable_inputs():
    """One replicate has no variance, h = 0 divides 0/0, and an h that
    takes n - h below a count the paths reach (here up to
    i0 + r0 + m = 101) evaluates negative populations: each is refused."""
    params = ModelParams(n=1000, beta=0.5, gamma=0.0, p=0.001, regime=Regime.BASS)
    bad = [
        (dict(replicates=1), "replicates must be an integer >= 2"),
        (dict(replicates=0), "replicates must be an integer >= 2"),
        *((dict(h=h), "h must be finite") for h in (0.0, -0.1, math.nan, math.inf, 2000.0, 899.0)),
    ]
    for kw, needle in bad:
        args = dict(replicates=100, rng=RngStream(seed=0)) | kw
        with pytest.raises(ValidationError, match=needle):
            score_variance_oracle(params, 1, 0, 100, **args)
    j, se = score_variance_oracle(params, 1, 0, 100, 2, RngStream(seed=0), h=898.0)
    assert math.isfinite(j) and math.isfinite(se)


@pytest.mark.parametrize(
    "params, i0, r0, m, reps, chunk",
    [
        (ModelParams(n=1e4, beta=0.5, gamma=0.25, regime=Regime.SIR), 82, 0, 465, 2000, MC_CHUNK),
        # Two chunks, the second of one column.
        (ModelParams(n=500, beta=0.5, gamma=0.25, regime=Regime.SIR), 10, 0, 40, MC_CHUNK + 1, MC_CHUNK),
        (ModelParams(n=200, beta=0.5, gamma=0.4, regime=Regime.SIR), 1, 0, 80, 700, 300),
        (ModelParams(n=300, beta=0.6, gamma=0.2, regime=Regime.SIR), 3, 2, 120, 150, MC_CHUNK),
        # gamma = 0: one count path, which fills the population at step 27.
        (ModelParams(n=30, beta=0.5, gamma=0.0, p=0.0, regime=Regime.SIR), 3, 0, 40, 200, MC_CHUNK),
        (ModelParams(n=300, beta=0.6, gamma=0.2, regime=Regime.SIR), 3, 2, 120, 1027, MC_CHUNK),
    ],
    # Counts-only slabs skip the unread holding-time uniforms at R >= 1024:
    # "workload-size", "beyond-one-chunk" (its 4096-column chunk) and
    # "odd-R" do; the other chunks draw them in blocks.
    ids=["workload-size", "beyond-one-chunk", "extinction", "r0", "gamma0-fills-population", "odd-R"],
)
# Both versions evaluate the bracket at c = n once the population is full,
# and mask it out, without a numpy warning.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fisher_sir_mc_matches_materializing_reference(params, i0, r0, m, reps, chunk):
    """Reducing slab by slab gives the very report of reducing whole blocks."""
    rng = RngStream(seed=9, stream_id=4)
    got = fisher_sir_mc(params, i0, r0, m, reps, rng, chunk=chunk)
    want = reference_fisher_sir_mc(params, i0, r0, m, reps, rng, chunk=chunk)
    assert np.array_equal(got.per_k, want.per_k) and np.array_equal(got.survival, want.survival)
    assert got.to_json_dict() == want.to_json_dict() and got.work == want.work


@pytest.mark.parametrize("exact", [False, True], ids=["mc", "exact"])
def test_sir_information_refuses_a_horizon_reaching_the_population(exact):
    """With gamma > 0 and i0 + r0 + m > n a live path can sit at C = n, where
    the bracket is infinite; both routes refuse such a horizon, as
    fisher_bass does, and accept the longest one below it."""
    params = ModelParams(n=30, beta=0.5, gamma=0.25, regime=Regime.SIR)

    def info(m):
        if exact:
            return fisher_sir_exact(params, i0=2, r0=1, m=m)
        return fisher_sir_mc(params, i0=2, r0=1, m=m, replicates=300, rng=RngStream(seed=0))

    with pytest.raises(ValidationError, match="observation horizon exceeds population"):
        info(28)
    rep = info(27)
    assert math.isfinite(rep.total) and rep.total > 0
    if not exact:
        assert math.isfinite(rep.mc_stderr)


def traced_peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fisher_sir_mc_memory_stays_below_one_path_array():
    """At the README size (n = 1e5, m = 2155, R = 2000) the reduction peaks
    far below one m x R float array, which the block it replaced held
    several of."""
    m, reps = 2155, 2000
    params = ModelParams(n=1e5, beta=0.5, gamma=0.25, regime=Regime.SIR)
    peak = traced_peak_bytes(lambda: fisher_sir_mc(params, 82, 0, m, reps, RngStream(seed=1)))
    assert peak < 8 * m * reps / 4


def test_score_oracle_memory_stays_below_one_path_array():
    m, reps = 464, 20_000
    params = ModelParams(n=1e4, beta=0.5, gamma=0.0, p=1e-4, regime=Regime.BASS)
    peak = traced_peak_bytes(lambda: score_variance_oracle(params, 1, 0, m, reps, RngStream(seed=1, stream_id=1)))
    assert peak < 8 * m * reps / 4


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


def test_sir_information_at_zero_and_negative_horizons():
    """m = 0 is the empty report in both recovery-regime routes, as it is
    for fisher_bass; m < 0 is refused."""
    mc = fisher_sir_mc(SIR_SMALL, i0=5, r0=0, m=0, replicates=200, rng=RngStream(seed=0))
    exact = fisher_sir_exact(SIR_SMALL, i0=5, r0=0, m=0)
    for rep in (mc, exact):
        assert rep.m == 0 and rep.per_k.size == 0 and rep.survival.size == 0
        assert rep.total == 0.0 and rep.cr_floor == math.inf
    assert mc.mc_stderr == 0.0 and mc.work["path_steps"] == 0
    with pytest.raises(ValidationError, match="non-negative"):
        fisher_sir_mc(SIR_SMALL, i0=5, r0=0, m=-1, replicates=200, rng=RngStream(seed=0))
    with pytest.raises(ValidationError, match="non-negative"):
        fisher_sir_exact(SIR_SMALL, i0=5, r0=0, m=-1)


def test_fisher_sir_mc_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        fisher_sir_mc(SIR_SMALL, i0=1, r0=0, m=10, replicates=50, rng=RngStream(seed=0))
    bass = ModelParams(n=100, beta=0.5, gamma=0.0, p=0.1, regime=Regime.BASS)
    with pytest.raises(ValidationError):
        fisher_sir_mc(bass, i0=1, r0=0, m=10, replicates=200, rng=RngStream(seed=0))
    # A negative count would index the bracket table from its end.
    with pytest.raises(ValidationError, match="r0"):
        fisher_sir_mc(SIR_SMALL, i0=2, r0=-5, m=10, replicates=200, rng=RngStream(seed=0))


def test_report_serialization_round_trip():
    rep = fisher_bass(100, 1, 10)
    obj = rep.to_json_dict()
    assert obj["total"] == rep.total
    assert len(obj["per_k"]) == 10
