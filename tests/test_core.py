import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from difflim.core import (
    DataCorruptionError,
    DiffusionState,
    ModelParams,
    ObservationSet,
    Regime,
    RngStream,
    ValidationError,
    read_ledger_csv,
    read_params_json,
    reconstruct_state,
    validate_params,
    write_ledger_csv,
    write_params_json,
)
from difflim.simulate import SimSpec, simulate_ledger


def test_reconstruct_one_infection_jump():
    assert reconstruct_state(2, 1, 1, 0) == (True, 2)


def test_reconstruct_dead_after_two_jumps():
    alive, i_k = reconstruct_state(1, 2, 1, 0)
    assert not alive
    assert i_k == 0


def test_reconstruct_initial_state():
    assert reconstruct_state(1, 0, 1, 0) == (True, 1)
    assert reconstruct_state(5, 0, 3, 2) == (True, 3)


def test_reconstruct_infeasible_count():
    with pytest.raises(DataCorruptionError):
        reconstruct_state(10, 2, 1, 0)  # c > i0 + r0 + k
    with pytest.raises(DataCorruptionError):
        reconstruct_state(0, 2, 1, 0)  # c below initial cumulative count


@given(
    i0=st.integers(1, 20),
    r0=st.integers(0, 20),
    jumps=st.lists(st.booleans(), min_size=0, max_size=60),
)
def test_reconstruct_matches_any_walk(i0, r0, jumps):
    """Walk an arbitrary infection/recovery sequence and check the count
    inversion at every live step."""
    i, r = i0, r0
    c = i0 + r0
    for k, is_infection in enumerate(jumps, start=1):
        if i == 0:
            c_frozen = c
            alive, i_rec = reconstruct_state(c_frozen, k, i0, r0)
            assert not alive
            continue
        if is_infection:
            i += 1
            c += 1
        else:
            i -= 1
            r += 1
        alive, i_rec = reconstruct_state(c, k, i0, r0)
        assert alive == (i > 0)
        if alive:
            assert i_rec == i


def test_validate_params_ok():
    p = ModelParams(n=100, beta=0.5, gamma=0.0, p=0.01, regime=Regime.BASS)
    assert validate_params(p) is p
    assert p.a == pytest.approx(1.0)


def test_validate_params_strict_supercritical():
    p = ModelParams(n=100, beta=0.5, gamma=0.6, p=0.0, regime=Regime.SIR)
    with pytest.raises(ValidationError, match="beta <= gamma"):
        validate_params(p, strict_supercritical=True)


def test_validate_params_rejects_bad_values():
    with pytest.raises(ValidationError):
        validate_params(ModelParams(n=0, beta=0.5))
    with pytest.raises(ValidationError):
        validate_params(ModelParams(n=10, beta=-1.0))
    with pytest.raises(ValidationError):
        validate_params(ModelParams(n=10, beta=0.5, gamma=0.1, regime=Regime.BASS))
    with pytest.raises(ValidationError):
        validate_params(ModelParams(n=10, beta=0.5, p=0.1, regime=Regime.SIR))
    # (beta + p + gamma) * n^2 overflows, whichever rate is large
    overflowing = [
        ModelParams(n=200, beta=5e305),
        ModelParams(n=1e160, beta=0.5),
        ModelParams(n=1e3, beta=0.0, gamma=1e303),
    ]
    for big in overflowing:
        with pytest.raises(ValidationError, match="overflow"):
            validate_params(big)
    assert validate_params(ModelParams(n=1e12, beta=1e6, gamma=1e6, p=1e6))


def test_diffusion_state_identities():
    s = DiffusionState(s=7, i=2, r=1)
    assert s.c == 3
    assert s.n == 10
    with pytest.raises(ValidationError):
        DiffusionState(s=-1, i=2, r=1).check(2)


def test_observation_set_truncation_prefix():
    params = ModelParams(n=50, beta=0.5, gamma=0.25, regime=Regime.SIR)
    spec = SimSpec(params=params, i0=3, r0=0, max_jumps=30, rng=RngStream(seed=5))
    ledger = simulate_ledger(spec)
    full = ObservationSet.from_ledger(ledger, 30)
    short = ObservationSet.from_ledger(ledger, 12)
    assert full.truncate(12) == short
    assert short.truncate(12) == short  # idempotent
    assert full.truncate(12).truncate(5) == full.truncate(5)
    with pytest.raises(ValidationError):
        short.truncate(13)


def test_rng_stream_reproducible_and_independent():
    a = RngStream(seed=123, stream_id=4).generator().random(8)
    b = RngStream(seed=123, stream_id=4).generator().random(8)
    c = RngStream(seed=123, stream_id=5).generator().random(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_ledger_csv_round_trip(tmp_path):
    params = ModelParams(n=30, beta=0.5, gamma=0.4, regime=Regime.SIR)
    spec = SimSpec(params=params, i0=1, r0=0, max_jumps=25, rng=RngStream(seed=11))
    ledger = simulate_ledger(spec)
    assert ledger.terminated_at is not None  # i0=1 with high gamma dies fast here
    path = tmp_path / "ledger.csv"
    write_ledger_csv(ledger, path)
    back = read_ledger_csv(path)
    assert back.n == ledger.n
    assert back.i0 == ledger.i0 and back.r0 == ledger.r0
    assert back.terminated_at == ledger.terminated_at
    assert len(back) == len(ledger)
    for e1, e2 in zip(ledger.entries, back.entries):
        assert e1.kind == e2.kind
        assert e1.state_after == e2.state_after
        if e1.kind is not None:
            assert e2.inter_arrival == pytest.approx(e1.inter_arrival, rel=0, abs=0)
        else:
            assert math.isinf(e2.inter_arrival)
    # serialized file never contains a float infinity
    assert "inf" not in path.read_text()


def test_ledger_csv_round_trip_no_termination(tmp_path):
    params = ModelParams(n=10_000, beta=0.5, gamma=0.25, regime=Regime.SIR)
    spec = SimSpec(params=params, i0=50, r0=0, max_jumps=40, rng=RngStream(seed=2))
    ledger = simulate_ledger(spec)
    assert ledger.terminated_at is None
    path = tmp_path / "ledger.csv"
    write_ledger_csv(ledger, path)
    back = read_ledger_csv(path)
    assert back.terminated_at is None
    assert [e.state_after for e in back.entries] == [e.state_after for e in ledger.entries]


def test_params_json_round_trip(tmp_path):
    p = ModelParams(n=1e6, beta=0.4, gamma=0.1, p=0.0, regime=Regime.SIR)
    path = tmp_path / "params.json"
    write_params_json(p, path)
    assert read_params_json(path) == p


def test_counts_are_64_bit():
    big = 10**12
    state = DiffusionState(s=big - 5, i=3, r=2)
    assert state.n == big
    alive, i_k = reconstruct_state(big - 1, 0, big - 1, 0)
    assert alive and i_k == big - 1
