import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difflim.core import (
    DiffusionState,
    JumpKind,
    ModelParams,
    ObservationSet,
    Regime,
    RngStream,
    ValidationError,
    reconstruct_state,
)
from difflim import simulate
from difflim.simulate import (
    ColumnTotals,
    SimSpec,
    path_slabs,
    simulate_batch,
    simulate_ledger,
    simulate_paths,
)

from reference_kernels import (
    reference_infection_probability,
    reference_next_jump,
    reference_simulate_ledger,
    reference_simulate_paths,
)

BASS = ModelParams(n=1000, beta=0.5, gamma=0.0, p=0.001, regime=Regime.BASS)
SIR = ModelParams(n=100, beta=0.5, gamma=0.25, regime=Regime.SIR)


def test_next_jump_terminates_at_zero_infected():
    """The reference step stops at i = 0; the ledger stops there too and
    repeats the extinct state."""
    state = DiffusionState(s=90, i=0, r=10)
    assert reference_next_jump(state, SIR, RngStream(seed=0).generator()) is None
    params = ModelParams(n=100, beta=0.1, gamma=2.0, regime=Regime.SIR)
    ledger = simulate_ledger(SimSpec(params=params, i0=2, max_jumps=30, rng=RngStream(seed=0)))
    stop = ledger.terminated_at
    assert stop is not None and 2 <= stop < 30
    assert ledger.state_at(stop).i == 0
    assert all(e.kind is None and math.isinf(e.inter_arrival) for e in ledger.entries[stop:])


def test_next_jump_terminates_at_full_infection():
    """At i = n the reference step stops, and a ledger started there is
    frozen from its first entry."""
    state = DiffusionState(s=0, i=100, r=0)
    assert reference_next_jump(state, SIR, RngStream(seed=0).generator()) is None
    ledger = simulate_ledger(SimSpec(params=SIR, i0=100, max_jumps=3, rng=RngStream(seed=0)))
    assert ledger.terminated_at == 0
    assert [e.state_after for e in ledger.entries] == [state] * 3
    assert all(e.kind is None and e.t == 0.0 for e in ledger.entries)


def test_next_jump_degenerate_rates():
    params = ModelParams(n=100, beta=0.0, gamma=0.0, p=0.0)
    with pytest.raises(ValidationError, match="degenerate"):
        reference_next_jump(DiffusionState(s=90, i=10, r=0), params, RngStream(seed=0).generator())


def test_bass_jumps_are_always_infections():
    ledger = simulate_ledger(SimSpec(params=BASS, i0=5, max_jumps=200, rng=RngStream(seed=3)))
    assert ledger.terminated_at is None
    for entry in ledger.entries:
        assert entry.kind is JumpKind.INFECTION
        assert entry.inter_arrival > 0


def test_infection_probability_closed_form():
    """S=90, I=10, N=100, beta=0.5, gamma=0.25: the jump rate is 7 and the
    infection probability 450/700.  So from the stream's first two
    uniforms, the ledger's first holding time is -log1p(-u_time)/7, and
    the jump is an infection exactly when u_kind < 450/700."""
    state = DiffusionState(s=90, i=10, r=0)
    assert reference_infection_probability(state, SIR) == 450.0 / 700.0
    kinds = set()
    for seed in range(40):
        rng = RngStream(seed=seed)
        u_time, u_kind = rng.generator().random(2)
        first = simulate_ledger(SimSpec(params=SIR, i0=10, max_jumps=1, rng=rng)).entries[0]
        assert first.inter_arrival == -math.log1p(-u_time) / 7.0
        assert first.kind is (JumpKind.INFECTION if u_kind < 450.0 / 700.0 else JumpKind.RECOVERY)
        kinds.add(first.kind)
    assert kinds == {JumpKind.INFECTION, JumpKind.RECOVERY}


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
    lam = 7.0  # (0.5 * 90 / 100) * 10 + 0.25 * 10
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
    """Replicate r of a batch is the ledger of stream (seed, stream_id + r)."""
    spec = SimSpec(params=SIR, i0=4, r0=0, max_jumps=20, rng=RngStream(seed=31, stream_id=5))
    batch = simulate_batch(spec, replicates=4)
    assert len(batch) == 4
    for r, ledger in enumerate(batch):
        rng = RngStream(seed=31, stream_id=5 + r)
        assert ledger == simulate_ledger(SimSpec(params=SIR, i0=4, r0=0, max_jumps=20, rng=rng))
    with pytest.raises(ValidationError):
        simulate_batch(spec, replicates=0)


def test_spec_rejects_degenerate_start():
    with pytest.raises(ValidationError):
        SimSpec(params=SIR, i0=0, r0=0, max_jumps=5, rng=RngStream(seed=0))
    with pytest.raises(ValidationError):
        SimSpec(params=SIR, i0=90, r0=20, max_jumps=5, rng=RngStream(seed=0))
    with pytest.raises(ValidationError):
        SimSpec(params=SIR, i0=1, r0=0, max_jumps=0, rng=RngStream(seed=0))


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
    # With non-integer n an infection at S = 0.5 leaves S = -0.5, and a
    # live column's rate (beta*S/n + gamma)*I is then negative: it freezes.
    "negative-s-stall": (ModelParams(n=2.5, beta=10.0, gamma=0.1), 1, 1, 10, 50),
    # From i0 = 1 about half the columns die within a few jumps while the
    # others climb hundreds of counts, so the dead sit far below the window
    # of counts that the live columns are tabulated over.
    "wide-window": (ModelParams(n=1e4, beta=0.5, gamma=0.25), 1, 0, 600, 300),
    # Wide enough that a counts-only run skips the holding-time uniforms.
    "skip-R-sir": (ModelParams(n=1e4, beta=0.5, gamma=0.25), 5, 2, 120, simulate._SKIP_MIN_R + 3),
}

# S*(beta*I) would overflow to inf for I >= 2, making p_inf = inf/inf NaN
# (a gamma = 0 jump would then count as a recovery); such rates are refused.
OVERFLOW_CASES = {
    "overflow-gamma0": (ModelParams(n=200, beta=5e305, gamma=0.0), 5, 0, 20, 6),
    "overflow-sir": (ModelParams(n=200, beta=5e305, gamma=0.5), 5, 0, 20, 6),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_simulate_paths_matches_reference_loop(case):
    params, i0, r0, m, reps = PARITY_CASES[case]
    rng = RngStream(seed=7, stream_id=3)
    got = simulate_paths(params, i0, r0, m, rng, reps)
    want = reference_simulate_paths(params, i0, r0, m, rng, reps)
    for name in ("T", "C", "alive", "infected"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_path_slabs_concatenate_to_the_block(case):
    """The slabs cover rows 0..m in order, each at most one uniform block
    of steps and each starting on the row the one before ended on; copied
    as they come and stacked, they are the reference loop's block and the
    block simulate_paths collects."""
    params, i0, r0, m, reps = PARITY_CASES[case]
    rng = RngStream(seed=7, stream_id=3)
    K = max(1, simulate._BLOCK_DOUBLES // (2 * reps))
    pieces = {"T": [], "C": [], "alive": [], "infected": []}
    end = 0
    for k0, slab in path_slabs(params, i0, r0, m, rng, reps):
        assert k0 == end and slab.m <= K and slab.replicates == reps
        for name in ("C", "alive", "infected"):
            rows = getattr(slab, name)
            assert rows.shape == (slab.m + 1, reps)
            if k0:
                assert np.array_equal(rows[0], pieces[name][-1][-1]), name
            pieces[name].append(rows[1:].copy() if k0 else rows.copy())
        pieces["T"].append(slab.T.copy())
        end = k0 + slab.m
    assert end == m
    stacked = {name: np.concatenate(rows) for name, rows in pieces.items()}
    want = reference_simulate_paths(params, i0, r0, m, rng, reps)
    collected = simulate_paths(params, i0, r0, m, rng, reps)
    for name, rows in stacked.items():
        for block in (want, collected):
            other = getattr(block, name)
            assert rows.dtype == other.dtype and np.array_equal(rows, other), name


@pytest.mark.parametrize("R", [1, 2, 7, 300])
def test_column_totals_match_sum_over_rows(R):
    """Fed a slab of rows at a time, ColumnTotals gives the bits of
    sum(axis=0): rows added in order for R > 1, one column pairwise."""
    gen = np.random.default_rng(R)
    m = 3000
    a = gen.standard_normal((m, R)) * np.exp(4.0 * gen.standard_normal((m, R)))
    acc = ColumnTotals(m, R)
    k = 0
    for size in [0, 1, 7, 64, 1000] * 4:
        acc.add(a[k : k + size])
        k += size
    acc.add(a[k:])
    assert np.array_equal(acc.total(), a.sum(axis=0))


@pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
def test_overflowing_rates_are_refused(case):
    params, i0, r0, m, reps = OVERFLOW_CASES[case]
    rng = RngStream(seed=7, stream_id=3)
    with pytest.raises(ValidationError, match="overflow"):
        simulate_paths(params, i0, r0, m, rng, reps)
    with pytest.raises(ValidationError, match="overflow"):
        simulate_ledger(SimSpec(params=params, i0=i0, r0=r0, max_jumps=m, rng=rng))


def test_parity_cases_reach_their_edge():
    """The named edge cases do what their names say."""
    def block(case):
        params, i0, r0, m, reps = PARITY_CASES[case]
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
    stall = block("negative-s-stall")
    assert np.any(stall.alive[-1] & (stall.C[-1] > 2.5) & np.isinf(stall.T[-1]))
    for params, i0, r0, m, reps in OVERFLOW_CASES.values():
        with pytest.raises(ValidationError, match="overflow"):
            simulate_paths(params, i0, r0, m, RngStream(seed=7, stream_id=3), reps)
    assert 2 * PARITY_CASES["R-beyond-block-sir"][4] > simulate._BLOCK_DOUBLES
    wide = block("wide-window")
    live = wide.alive[-1]
    assert np.sum(~live & (wide.C[-1] < 10)) > 50 and wide.C[-1][live].min() > 200
    assert PARITY_CASES["skip-R-sir"][4] >= simulate._SKIP_MIN_R


@pytest.mark.parametrize("case", ["extinction", "fills-population-sir", "negative-s-stall", "wide-window"])
def test_kernel_warns_nothing(case):
    """The SIR kernel's tables divide 0/0 where I = 0; no numpy
    RuntimeWarning escapes it, with holding times or without."""
    params, i0, r0, m, reps = PARITY_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for times in (True, False):
            for _ in path_slabs(params, i0, r0, m, RngStream(seed=7, stream_id=3), reps, times=times):
                pass


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 40),
    frac=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True),
    beta=st.floats(0.0, 5.0),
    gamma=st.floats(0.01, 3.0),
    p=st.just(0.0) | st.floats(0.0, 0.3),
    i0=st.integers(1, 42),
    r0=st.integers(0, 3),
    m=st.integers(0, 60),
    reps=st.sampled_from([1, 2, 5, 33]),
    seed=st.integers(0, 2**32 - 1),
)
def test_path_slabs_match_reference_on_random_models(n, frac, beta, gamma, p, i0, r0, m, reps, seed):
    """On small models, integer n or not, both kinds of slab are the
    reference loop's block bit for bit."""
    params = ModelParams(n=n + frac, beta=beta, gamma=gamma, p=p)
    rng = RngStream(seed=seed, stream_id=5)
    want = reference_simulate_paths(params, i0, r0, m, rng, reps)
    got = simulate_paths(params, i0, r0, m, rng, reps)
    pieces = {"C": [], "alive": [], "infected": []}
    for k0, slab in path_slabs(params, i0, r0, m, rng, reps, times=False):
        for name, rows in pieces.items():
            rows.append(getattr(slab, name)[1 if k0 else 0 :].copy())
    for name in ("T", "C", "alive", "infected"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
        if name != "T":
            assert np.array_equal(np.concatenate(pieces[name]), getattr(want, name)), name


@pytest.mark.parametrize(
    "i0, r0, m, reps, needle",
    [
        (2, -5, 10, 4, "r0 must be an integer >= 0"),
        (2, 1.0, 10, 4, "r0 must be an integer >= 0"),
        (2.5, 0, 10, 4, "i0 must be an integer >= 1"),
        (0, 0, 10, 4, "i0 must be an integer >= 1"),
        (True, 0, 10, 4, "i0 must be an integer >= 1"),
        (2, 0, -1, 4, "m must be an integer >= 0"),
        (2, 0, 10, -1, "replicates must be an integer >= 1"),
        (2, 0, 10, 0, "replicates must be an integer >= 1"),
    ],
    ids=["r0-negative", "r0-float", "i0-float", "i0-zero", "i0-bool", "m-negative", "R-negative", "R-zero"],
)
def test_path_slabs_refuses_what_the_count_table_cannot_hold(i0, r0, m, reps, needle):
    for times in (True, False):
        with pytest.raises(ValidationError, match=needle):
            path_slabs(SIR, i0, r0, m, RngStream(seed=1), reps, times=times)
    with pytest.raises(ValidationError, match=needle):
        simulate_paths(SIR, i0, r0, m, RngStream(seed=1), reps)


def test_path_slabs_take_numpy_integers():
    rng = RngStream(seed=1)
    got = simulate_paths(SIR, np.int64(3), np.int32(1), np.int64(20), rng, np.int64(5))
    want = simulate_paths(SIR, 3, 1, 20, rng, 5)
    for name in ("T", "C", "alive", "infected"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_sim_spec_refuses_non_integer_starts():
    with pytest.raises(ValidationError, match="i0 must be an integer >= 1"):
        SimSpec(params=SIR, i0=2.5)
    with pytest.raises(ValidationError, match="r0 must be an integer >= 0"):
        SimSpec(params=SIR, i0=2, r0=0.5)


# (params, i0, r0, max_jumps) for the ledger loop against its reference.
LEDGER_CASES = {
    "sir": (ModelParams(n=100, beta=0.5, gamma=0.25, regime=Regime.SIR), 4, 0, 80),
    "bass-p": (ModelParams(n=1000, beta=0.5, gamma=0.0, p=0.001, regime=Regime.BASS), 1, 0, 150),
    "general": (ModelParams(n=80, beta=0.7, gamma=0.3, p=0.01), 3, 2, 120),
    "extinction": (ModelParams(n=50, beta=0.01, gamma=50.0), 1, 0, 10),
    "reaches-n-sir": (ModelParams(n=15, beta=5.0, gamma=0.05), 2, 0, 60),
    "reaches-n-bass": (ModelParams(n=12, beta=0.5, gamma=0.0, p=0.1, regime=Regime.BASS), 1, 0, 30),
    "i0-equals-n": (ModelParams(n=10, beta=0.5, gamma=0.2), 10, 0, 5),
    "non-integer-n": (ModelParams(n=50.5, beta=0.9, gamma=0.1), 2, 1, 80),
    # i0 = int(n) is not n, so the start is live; later states are tested
    # against int(n).
    "non-integer-n-i0-int-n": (ModelParams(n=20.5, beta=0.5, gamma=0.3), 20, 0, 30),
    "int-rates": (ModelParams(n=30, beta=2, gamma=1), 3, 1, 40),
    "max-jumps-1": (ModelParams(n=100, beta=0.5, gamma=0.25, regime=Regime.SIR), 4, 0, 1),
}


@pytest.mark.parametrize("case", sorted(LEDGER_CASES))
def test_simulate_ledger_matches_reference(case):
    """The inlined ledger loop gives the ledger of the per-jump reference
    loop, entry for entry, on every stream."""
    params, i0, r0, m = LEDGER_CASES[case]
    for stream in range(20):
        spec = SimSpec(params=params, i0=i0, r0=r0, max_jumps=m, rng=RngStream(seed=11, stream_id=stream))
        assert simulate_ledger(spec) == reference_simulate_ledger(spec)


@pytest.mark.parametrize(
    "params, i0, r0",
    [
        (ModelParams(n=10, beta=0.0, gamma=0.0, p=0.0), 3, 0),
        # Three infections use up S with gamma = 0: the rate is then zero.
        (ModelParams(n=10, beta=0.5, gamma=0.0, p=0.0), 3, 4),
        # i0 = int(n) < n is live at the start, with S = 0 and gamma = 0.
        (ModelParams(n=20.5, beta=0.5, gamma=0.0, p=0.1), 20, 0),
    ],
    ids=["all-zero", "s-used-up", "non-integer-n-s-zero"],
)
def test_simulate_ledger_zero_rate_raises(params, i0, r0):
    spec = SimSpec(params=params, i0=i0, r0=r0, max_jumps=12, rng=RngStream(seed=1))
    for simulate_one in (simulate_ledger, reference_simulate_ledger):
        with pytest.raises(ValidationError, match="degenerate"):
            simulate_one(spec)


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


@pytest.mark.parametrize("drawn", range(8))
def test_skip_lands_where_a_full_draw_would(drawn):
    """From every offset into Philox's four-output buffer, skipping q
    doubles leaves the stream where drawing them would, for q = 0..20 and
    a q of many blocks."""
    want = RngStream(seed=3, stream_id=9).generator().random(drawn + 5000)
    for q in [*range(21), 4099]:
        gen = RngStream(seed=3, stream_id=9).generator()
        assert np.array_equal(gen.random(drawn), want[:drawn])
        simulate._skip(gen.bit_generator, drawn, q)
        assert np.array_equal(gen.random(8), want[drawn + q : drawn + q + 8]), q


@pytest.mark.parametrize("wide", [False, True], ids=["case-R", "R-above-skip"])
@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_counts_only_slabs_match_full_slabs(case, wide):
    """path_slabs(..., times=False) gives the C, alive and infected of the
    reference loop and no T, at the case's R and at an R where the unread
    uniforms are skipped (odd, so the skips start at every buffer offset);
    there the gamma = 0 holding times, drawn row by row, still match."""
    params, i0, r0, m, reps = PARITY_CASES[case]
    if wide:
        reps = max(reps, simulate._SKIP_MIN_R + 1)
    rng = RngStream(seed=7, stream_id=3)
    want = reference_simulate_paths(params, i0, r0, m, rng, reps)
    full = simulate_paths(params, i0, r0, m, rng, reps)
    for name in ("T", "C", "alive", "infected"):
        assert np.array_equal(getattr(full, name), getattr(want, name)), name
    pieces = {"C": [], "alive": [], "infected": []}
    for k0, slab in path_slabs(params, i0, r0, m, rng, reps, times=False):
        assert slab.T is None
        for name, rows in pieces.items():
            rows.append(getattr(slab, name)[1 if k0 else 0 :].copy())
    for name, rows in pieces.items():
        assert np.array_equal(np.concatenate(rows), getattr(want, name)), name
