import math

import numpy as np
import pytest

from difflim.core import (
    DiffusionState,
    JumpKind,
    ModelParams,
    ObservationSet,
    Regime,
    RngStream,
    ValidationError,
    reconstruct_state,
    write_batch_csv,
)
from difflim import simulate
from difflim.simulate import (
    TERMINATED,
    SimSpec,
    dominated_walk,
    infection_probability,
    jump_rate,
    next_jump,
    simulate_batch,
    simulate_ledger,
    simulate_paths,
    walk_stopping_time,
)

from reference_kernels import reference_simulate_paths

BASS = ModelParams(n=1000, beta=0.5, gamma=0.0, p=0.001, regime=Regime.BASS)
SIR = ModelParams(n=100, beta=0.5, gamma=0.25, regime=Regime.SIR)


def test_next_jump_terminates_at_zero_infected():
    state = DiffusionState(s=90, i=0, r=10)
    assert next_jump(state, SIR, RngStream(seed=0).generator()) is TERMINATED


def test_next_jump_terminates_at_full_infection():
    state = DiffusionState(s=0, i=100, r=0)
    assert next_jump(state, SIR, RngStream(seed=0).generator()) is TERMINATED


def test_next_jump_degenerate_rates():
    params = ModelParams(n=100, beta=0.0, gamma=0.0, p=0.0)
    with pytest.raises(ValidationError, match="degenerate"):
        next_jump(DiffusionState(s=90, i=10, r=0), params, RngStream(seed=0).generator())


def test_bass_jumps_are_always_infections():
    gen = RngStream(seed=3).generator()
    state = DiffusionState(s=995, i=5, r=0)
    for _ in range(200):
        t, kind = next_jump(state, BASS, gen)
        assert kind is JumpKind.INFECTION
        assert t > 0


def test_infection_probability_closed_form():
    # S=90, I=10, N=100, beta=0.5, gamma=0.25: 450/700
    state = DiffusionState(s=90, i=10, r=0)
    assert infection_probability(state, SIR) == pytest.approx(450.0 / 700.0)


def test_jump_type_frequency_matches_probability():
    """Empirical infection frequency from one lockstep step at a fixed
    state, against the closed form, within 3 sigma at 1e6 draws."""
    n = 100
    params = ModelParams(n=n, beta=0.5, gamma=0.25, regime=Regime.SIR)
    reps = 1_000_000
    block = simulate_paths(params, i0=10, r0=0, m=1, rng=RngStream(seed=17), replicates=reps)
    p_true = 450.0 / 700.0
    freq = float(np.mean(block.C[1] > block.C[0]))
    sigma = math.sqrt(p_true * (1 - p_true) / reps)
    assert abs(freq - p_true) < 3 * sigma


def test_holding_time_moments():
    """Mean and variance of the first holding time at a fixed state match
    1/lambda and 1/lambda^2 within 3 sigma at 1e5 draws."""
    params = ModelParams(n=100, beta=0.5, gamma=0.25, regime=Regime.SIR)
    i0, r0 = 10, 0
    lam = jump_rate(DiffusionState(s=90, i=10, r=0), params)
    reps = 100_000
    block = simulate_paths(params, i0=i0, r0=r0, m=1, rng=RngStream(seed=23), replicates=reps)
    t1 = block.T[0]
    mean_se = (1 / lam) / math.sqrt(reps)
    assert abs(t1.mean() - 1 / lam) < 3 * mean_se
    var_se = (1 / lam**2) * math.sqrt(8.0 / reps)  # var of exp variance estimate
    assert abs(t1.var(ddof=1) - 1 / lam**2) < 3 * var_se


def test_simulate_ledger_bass_counts_deterministic():
    spec = SimSpec(params=ModelParams(n=5, beta=0.5, gamma=0.0, p=0.1, regime=Regime.BASS),
                   i0=1, r0=0, max_jumps=4, rng=RngStream(seed=1))
    ledger = simulate_ledger(spec)
    for k, entry in enumerate(ledger.entries, start=1):
        assert entry.state_after.c == 1 + k
        assert entry.state_after.s == 5 - 1 - k
        assert entry.kind is JumpKind.INFECTION


def test_simulate_ledger_freeze_convention():
    """A first-jump recovery from i0=1 stops the process; every later entry
    repeats the state with an infinite holding time."""
    params = ModelParams(n=50, beta=0.01, gamma=50.0, regime=Regime.SIR)
    ledger = simulate_ledger(SimSpec(params=params, i0=1, r0=0, max_jumps=6, rng=RngStream(seed=4)))
    assert ledger.entries[0].kind is JumpKind.RECOVERY
    assert ledger.terminated_at == 1
    frozen_state = ledger.entries[0].state_after
    assert frozen_state.i == 0
    for entry in ledger.entries[1:]:
        assert entry.kind is None
        assert math.isinf(entry.inter_arrival)
        assert entry.state_after == frozen_state
    obs = ObservationSet.from_ledger(ledger)
    assert obs.m == 6
    assert list(obs.counts()) == [1] * 6


def test_ledger_reconstruction_identity():
    """The count inversion reproduces the simulator's alive flag and
    infected count at every index, on many ledgers."""
    params = ModelParams(n=200, beta=0.5, gamma=0.3, regime=Regime.SIR)
    for rep in range(50):
        ledger = simulate_ledger(
            SimSpec(params=params, i0=2, r0=1, max_jumps=60, rng=RngStream(seed=99, stream_id=rep))
        )
        for k in range(1, len(ledger) + 1):
            state = ledger.state_at(k)
            alive, i_k = reconstruct_state(state.c, k, ledger.i0, ledger.r0)
            expected_alive = ledger.terminated_at is None or k < ledger.terminated_at or (
                k >= ledger.terminated_at and state.i > 0 and state.i < params.n
            )
            assert alive == (state.i > 0)
            if alive:
                assert i_k == state.i


def test_conservation_every_state():
    params = ModelParams(n=150, beta=0.6, gamma=0.2, regime=Regime.SIR)
    ledger = simulate_ledger(SimSpec(params=params, i0=5, r0=3, max_jumps=100, rng=RngStream(seed=8)))
    for k in range(len(ledger) + 1):
        st = ledger.state_at(k)
        assert st.s + st.i + st.r == 150
        assert st.c == st.i + st.r


def test_simulate_batch_matches_single():
    spec = SimSpec(params=SIR, i0=4, r0=0, max_jumps=20, rng=RngStream(seed=31))
    single = simulate_ledger(spec)
    batch = simulate_batch(spec, replicates=1)
    assert len(batch) == 1
    assert [e.state_after for e in batch[0].entries] == [e.state_after for e in single.entries]


def test_simulate_batch_parallelism_bytes_identical(tmp_path):
    spec = SimSpec(params=SIR, i0=4, r0=0, max_jumps=15, rng=RngStream(seed=77))
    serial = simulate_batch(spec, replicates=6, parallelism=1)
    parallel = simulate_batch(spec, replicates=6, parallelism=3)
    p1, p2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    write_batch_csv(serial, p1)
    write_batch_csv(parallel, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_spec_rejects_degenerate_start():
    with pytest.raises(ValidationError):
        SimSpec(params=SIR, i0=0, r0=0, max_jumps=5, rng=RngStream(seed=0))
    with pytest.raises(ValidationError):
        SimSpec(params=SIR, i0=90, r0=20, max_jumps=5, rng=RngStream(seed=0))
    with pytest.raises(ValidationError):
        SimSpec(params=SIR, i0=1, r0=0, max_jumps=0, rng=RngStream(seed=0))


def test_dominated_walk_never_stops_at_p_one():
    spec = SimSpec(params=SIR, i0=1, r0=0, max_jumps=50, rng=RngStream(seed=6))
    walk = dominated_walk(spec, p_bern=1.0)
    assert list(walk) == [1 + k for k in range(51)]
    assert walk_stopping_time(walk, 1, 0) is None


def test_dominated_walk_stops_immediately_at_p_zero():
    spec = SimSpec(params=SIR, i0=1, r0=0, max_jumps=10, rng=RngStream(seed=6))
    walk = dominated_walk(spec, p_bern=0.0)
    # A_1 = 1 <= r_1 = 1, frozen from there on
    assert walk_stopping_time(walk, 1, 0) == 1
    assert list(walk[1:]) == [1] * 10


def test_dominated_walk_freezes_after_first_hit():
    spec = SimSpec(params=SIR, i0=2, r0=0, max_jumps=400, rng=RngStream(seed=13))
    walk = dominated_walk(spec, p_bern=0.55)
    tau = walk_stopping_time(walk, 2, 0)
    if tau is not None:
        assert np.all(walk[tau:] == walk[tau])


def test_lockstep_block_consistency():
    """The vectorized block and the scalar ledger agree on the count
    supports and on termination frequency (statistically)."""
    params = ModelParams(n=60, beta=0.5, gamma=0.45, regime=Regime.SIR)
    m, reps = 40, 4000
    block = simulate_paths(params, i0=1, r0=0, m=m, rng=RngStream(seed=55), replicates=reps)
    # dead fraction from scalar path
    dead_scalar = 0
    n_scalar = 400
    for rep in range(n_scalar):
        ledger = simulate_ledger(
            SimSpec(params=params, i0=1, r0=0, max_jumps=m, rng=RngStream(seed=555, stream_id=rep))
        )
        dead_scalar += ledger.terminated_at is not None
    p_block = 1.0 - float(np.mean(block.alive[m]))
    p_scalar = dead_scalar / n_scalar
    sigma = math.sqrt(p_block * (1 - p_block) * (1 / reps + 1 / n_scalar))
    assert abs(p_block - p_scalar) < 4 * sigma
    # freeze convention in the block: dead columns carry frozen counts
    dead_cols = ~block.alive[m]
    if dead_cols.any():
        col = int(np.nonzero(dead_cols)[0][0])
        ks = np.nonzero(~block.alive[:, col])[0]
        tau = int(ks[0])
        assert np.all(block.C[tau:, col] == block.C[tau, col])
        assert np.all(np.isinf(block.T[tau:, col]))


def test_dominance_of_comparison_walk():
    """P(tau <= m) <= P(tau_A <= m) + 3 sigma under the rate condition,
    and the walk's final-count CDF lies above the diffusion's."""
    from difflim.fisher import compute_survival_threshold, highprob_rate_condition

    params = ModelParams(n=10_000, beta=0.5, gamma=0.25, regime=Regime.SIR)
    i0, m, reps = 2, 400, 10_000
    assert highprob_rate_condition(params, m, i0)
    p_walk = compute_survival_threshold(0.5, 0.25).p

    block = simulate_paths(params, i0=i0, r0=0, m=m, rng=RngStream(seed=71), replicates=reps)
    p_tau = 1.0 - float(np.mean(block.alive[m]))

    gen = RngStream(seed=71, stream_id=1).generator()
    x = (gen.random((reps, m)) < p_walk).astype(np.int64)
    walk = i0 + np.cumsum(x, axis=1)
    ks = np.arange(1, m + 1)
    stopped = np.any(2 * walk <= i0 + ks[None, :], axis=1)
    p_tau_walk = float(np.mean(stopped))

    sigma = math.sqrt(p_tau_walk * (1 - p_tau_walk) / reps)
    assert p_tau <= p_tau_walk + 3 * sigma

    # Pointwise CDF sandwich for the count chain that keeps evolving past
    # the stopping time: with z = (n-m-c0)/n, the Bern((beta/(beta+gamma))z)
    # walk sits below it and the Bern(beta/(beta+gamma)) walk above, within
    # a two-sample KS band.
    n = params.n
    beta, gamma = params.beta, params.gamma
    z = (n - m - i0) / n
    p_lo = (beta / (beta + gamma)) * z
    p_hi = beta / (beta + gamma)
    gen2 = RngStream(seed=71, stream_id=2).generator()
    c_mod = np.full(reps, float(i0))
    for _ in range(m):
        eta = beta * (n - c_mod) / (beta * (n - c_mod) + gamma * n)
        c_mod += (gen2.random(reps) < eta).astype(float)
    gen3 = RngStream(seed=71, stream_id=3).generator()
    a_final = i0 + (gen3.random((reps, m)) < p_lo).sum(axis=1)
    gen4 = RngStream(seed=71, stream_id=4).generator()
    b_final = i0 + (gen4.random((reps, m)) < p_hi).sum(axis=1)

    grid = np.arange(i0, i0 + m + 1)
    cdf_a = np.searchsorted(np.sort(a_final), grid, side="right") / reps
    cdf_mod = np.searchsorted(np.sort(c_mod), grid, side="right") / reps
    cdf_b = np.searchsorted(np.sort(b_final), grid, side="right") / reps
    ks_band = 1.63 * math.sqrt(2.0 / reps)
    assert float(np.max(cdf_mod - cdf_a)) <= ks_band
    assert float(np.max(cdf_b - cdf_mod)) <= ks_band


# ---------------------------------------------------------------------------
# Exact parity of the lockstep kernel with the reference loop it replaced,
# and with the scalar ledger simulator on the same stream.
# ---------------------------------------------------------------------------

PARITY_CASES = {
    "sir": (ModelParams(n=60, beta=0.5, gamma=0.45, regime=Regime.SIR), 1, 0, 40, 300),
    "sir-long": (ModelParams(n=1e5, beta=0.5, gamma=0.25, regime=Regime.SIR), 82, 0, 300, 200),
    "bass-p": (ModelParams(n=1000, beta=0.5, gamma=0.0, p=0.001, regime=Regime.BASS), 1, 0, 100, 50),
    "general": (ModelParams(n=80, beta=0.7, gamma=0.3, p=0.01), 3, 2, 120, 64),
    "non-integer-n-sir": (ModelParams(n=50.5, beta=0.9, gamma=0.1), 2, 1, 80, 100),
    "non-integer-n-bass": (ModelParams(n=20.5, beta=0.5, gamma=0.0, p=0.1), 1, 0, 30, 40),
    # Every column dies within the first block of uniforms; the later
    # blocks are never drawn.
    "extinction": (ModelParams(n=50, beta=0.01, gamma=50.0), 1, 0, 4000, 20),
    "fills-population-sir": (ModelParams(n=15, beta=5.0, gamma=0.05), 2, 0, 60, 33),
    "fills-population-bass": (ModelParams(n=12, beta=0.5, gamma=0.0, p=0.1), 1, 0, 30, 7),
    "zero-rate-frozen": (ModelParams(n=10, beta=0.5, gamma=0.0, p=0.0), 3, 4, 12, 9),
    "all-rates-zero": (ModelParams(n=10, beta=0.0, gamma=0.0, p=0.0), 3, 0, 5, 4),
    "dead-at-start": (ModelParams(n=5, beta=0.5, gamma=0.2), 5, 0, 5, 3),
    "R1-sir": (ModelParams(n=200, beta=0.5, gamma=0.3), 2, 1, 60, 1),
    "R1-bass": (ModelParams(n=200, beta=0.5, gamma=0.0, p=0.01), 2, 0, 60, 1),
    "R-beyond-block-sir": (ModelParams(n=500, beta=0.5, gamma=0.25), 5, 0, 4, 40_000),
    "R-beyond-block-bass": (ModelParams(n=500, beta=0.5, gamma=0.0, p=0.002), 5, 0, 4, 40_000),
    "m0": (ModelParams(n=500, beta=0.5, gamma=0.25), 5, 0, 0, 10),
    # S*(beta*I) overflows to inf for I >= 2, so p_inf = inf/inf is NaN and
    # the gamma = 0 jump is a recovery.
    "overflow-gamma0": (ModelParams(n=200, beta=5e305, gamma=0.0), 5, 0, 20, 6),
    "overflow-sir": (ModelParams(n=200, beta=5e305, gamma=0.5), 5, 0, 20, 6),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_simulate_paths_matches_reference_loop(case):
    params, i0, r0, m, reps = PARITY_CASES[case]
    rng = RngStream(seed=7, stream_id=3)
    with np.errstate(over="ignore"):
        got = simulate_paths(params, i0, r0, m, rng, reps)
        want = reference_simulate_paths(params, i0, r0, m, rng, reps)
    for name in ("T", "C", "alive", "infected"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_parity_cases_reach_their_edge():
    """The named edge cases do what their names say."""
    def block(case):
        params, i0, r0, m, reps = PARITY_CASES[case]
        with np.errstate(over="ignore"):
            return simulate_paths(params, i0, r0, m, RngStream(seed=7, stream_id=3), reps)

    ext = block("extinction")
    assert not ext.alive[-1].any() and np.all(ext.infected[-1] == 0)
    assert simulate._BLOCK_DOUBLES // (2 * 20) < 4000
    for case in ("fills-population-sir", "fills-population-bass", "non-integer-n-bass"):
        b, n = block(case), PARITY_CASES[case][0].n
        # stopped with every uncounted unit infected: i reached n (or passed it, non-integer n)
        assert np.any(~b.alive[-1] & (b.C[-1] > n - 1)), case
    # Three infections use up S; the rate is then zero with 0 < i < n.
    frozen = block("zero-rate-frozen")
    assert frozen.alive.all() and np.all(frozen.C[3:] == 10) and np.all(frozen.infected[3:] == 6)
    assert np.isfinite(frozen.T[:3]).all() and np.isinf(frozen.T[3:]).all()
    assert block("dead-at-start").alive.sum() == 0
    over = block("overflow-gamma0")
    assert np.any(over.C[1:] == over.C[:-1]) and np.any(over.C[1:] > over.C[:-1])
    assert 2 * PARITY_CASES["R-beyond-block-sir"][4] > simulate._BLOCK_DOUBLES


@pytest.mark.parametrize(
    "params, i0, r0",
    [
        (ModelParams(n=300, beta=0.5, gamma=0.3, regime=Regime.SIR), 3, 1),
        (ModelParams(n=40, beta=0.8, gamma=0.2, regime=Regime.SIR), 2, 0),
        (ModelParams(n=1000, beta=0.5, gamma=0.0, p=0.001, regime=Regime.BASS), 1, 0),
        (ModelParams(n=30, beta=0.5, gamma=0.0, p=0.05, regime=Regime.BASS), 2, 0),
    ],
    ids=["sir", "sir-small-n", "bass", "bass-fills-population"],
)
def test_ledger_matches_one_column_block(params, i0, r0):
    """simulate_ledger and simulate_paths(..., replicates=1) read the same
    stream in the same order: counts and liveness agree exactly.  The
    ledger takes -log1p(-u) from math.log1p and the block from numpy's
    log1p, which differ by at most one ulp; after the division by the rate
    the holding times are at most two ulps apart."""
    m = 120
    for stream in range(5):
        rng = RngStream(seed=7, stream_id=stream)
        ledger = simulate_ledger(SimSpec(params=params, i0=i0, r0=r0, max_jumps=m, rng=rng))
        block = simulate_paths(params, i0, r0, m, rng, 1)
        counts = np.array([e.state_after.c for e in ledger.entries])
        assert np.array_equal(counts, block.C[1:, 0])
        stop = ledger.terminated_at if ledger.terminated_at is not None else m + 1
        assert np.array_equal(np.arange(m + 1) < stop, block.alive[:, 0])
        t_ledger = np.array([e.inter_arrival for e in ledger.entries])
        t_block = block.T[:, 0]
        assert np.array_equal(np.isinf(t_ledger), np.isinf(t_block))
        live = np.isfinite(t_ledger)
        assert np.all(t_ledger[live] > 0) and np.all(t_block[live] > 0)
        ulps = np.abs(t_ledger[live].view(np.int64) - t_block[live].view(np.int64))
        assert ulps.max(initial=0) <= 2
