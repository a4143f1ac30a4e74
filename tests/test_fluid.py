import math
import warnings

import numpy as np
import pytest
from reference_kernels import reference_integrate

from difflim import _dop853, fluid
from difflim.core import ModelParams, Regime, ValidationError
from difflim.fluid import (
    bass_closed_form,
    integrate,
    peak_bounds,
    peak_times,
    scaling_check,
    sir_xi_form,
    time_to_susceptible_fraction,
    xi_triple,
)

SIR = ModelParams(n=1e6, beta=0.5, gamma=0.25, regime=Regime.SIR)

# Fixed-step RK4 value of i(30) for beta=0.5, gamma=0.25, n=1e6, i0=1, r0=0
# at dt=1e-4 (regenerate with rk4_reference below).
RK4_I_AT_30 = 1795.0824914742363


def rk4_reference(beta, gamma, n, s0, i0, t_end, dt):
    """Deliberately independent fixed-step integrator used as the oracle."""

    def f(y):
        s, i = y
        force = beta * s * i
        return np.array([-force, force - gamma * i])

    y = np.array([s0 / n, i0 / n])
    for _ in range(int(round(t_end / dt))):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y * n


def test_integrate_matches_fixed_step_oracle():
    traj = integrate(SIR, 1e6 - 1, 1, 0, t_max=30.0)
    _, i_adaptive, _, _, _ = traj.at(30.0)
    # frozen high-accuracy oracle value, 6 significant digits
    assert i_adaptive == pytest.approx(RK4_I_AT_30, rel=5e-7)
    # live re-derivation at a coarser step stays within its own error budget
    _, i_live = rk4_reference(0.5, 0.25, 1e6, 1e6 - 1, 1.0, 30.0, 2e-3)
    assert i_adaptive == pytest.approx(i_live, rel=1e-8)


def test_constant_trajectory_when_nothing_moves():
    params = ModelParams(n=100, beta=0.5, gamma=0.25, regime=Regime.SIR)
    traj = integrate(params, 100, 0, 0, t_max=5.0)
    assert np.allclose(traj.s, 100.0)
    assert np.allclose(traj.i, 0.0)


def test_bass_absorbs_everyone():
    params = ModelParams(n=1000, beta=0.5, gamma=0.0, p=0.05, regime=Regime.BASS)
    traj = integrate(params, 1000, 0, 0, t_max=80.0)
    assert traj.i[-1] == pytest.approx(1000.0, rel=1e-6)
    assert traj.s[-1] == pytest.approx(0.0, abs=1e-3)


def test_conservation_and_monotonicity():
    traj = integrate(SIR, 1e6 - 10, 10, 0)
    n = 1e6
    assert np.max(np.abs(traj.s + traj.i + traj.r - n)) <= 1e-9 * n
    assert np.max(np.abs(traj.c - traj.i - traj.r)) <= 1e-9 * n
    assert np.all(np.diff(traj.s) <= 1e-9 * n)
    assert np.all(np.diff(traj.c) >= -1e-9 * n)
    assert traj.c[0] == pytest.approx(10.0, abs=1e-6)


def test_bass_closed_form_endpoints():
    params = ModelParams(n=1000, beta=0.5, gamma=0.0, p=0.01, regime=Regime.BASS)
    assert bass_closed_form(params, 0.0) == 0.0
    assert bass_closed_form(params, 1e6) == pytest.approx(1000.0)
    with pytest.raises(ValidationError):
        bass_closed_form(ModelParams(n=10, beta=0.5, gamma=0.0, p=0.0), 1.0)


@pytest.mark.parametrize("p_rate", [1e-6, 1e-3, 0.01])
def test_bass_closed_form_matches_integrator(p_rate):
    params = ModelParams(n=1000, beta=0.5, gamma=0.0, p=p_rate, regime=Regime.BASS)
    traj = integrate(params, 1000, 0, 0, t_max=25.0)
    closed = bass_closed_form(params, traj.ts)
    assert np.max(np.abs(closed - traj.i)) <= 1e-6 * 1000


def test_bass_closed_form_monotone():
    params = ModelParams(n=500, beta=0.4, gamma=0.0, p=0.02, regime=Regime.BASS)
    ts = np.linspace(0, 40, 400)
    vals = bass_closed_form(params, ts)
    assert np.all(np.diff(vals) > 0)


def test_xi_form_identities():
    params = ModelParams(n=1e5, beta=0.5, gamma=0.25, regime=Regime.SIR)
    s0, i0, r0 = 1e5 - 50, 40, 10
    traj = integrate(params, s0, i0, r0, t_max=40.0)
    # s(t) * exp(xi(t)) = s0 on the whole grid
    assert np.max(np.abs(traj.s * np.exp(traj.xi) - s0)) <= 1e-8 * s0
    # r(t) - r0 = (gamma n / beta) xi(t)
    pred_r = r0 + (params.gamma * params.n / params.beta) * traj.xi
    assert np.max(np.abs(pred_r - traj.r)) <= 1e-7 * params.n
    # the closed-form triple agrees with the integrated state at a time
    s_t, i_t, r_t = sir_xi_form(params, s0, i0, r0, 20.0)
    s_ref, i_ref, r_ref, _, _ = traj.at(20.0)
    assert s_t == pytest.approx(s_ref, rel=1e-8)
    assert i_t == pytest.approx(i_ref, rel=1e-6)
    assert r_t == pytest.approx(r_ref, rel=1e-8)


def test_xi_form_at_zero():
    params = ModelParams(n=100, beta=0.5, gamma=0.25, regime=Regime.SIR)
    s, i, r = sir_xi_form(params, 90, 8, 2, 0.0)
    assert (s, i, r) == pytest.approx((90, 8, 2), abs=1e-9)


def test_inflection_sign_condition():
    """d2s/dt2 > 0 exactly when s < (gamma/beta) n + i, checked against a
    numerical second difference of s."""
    traj = integrate(SIR, 1e6 - 1, 1, 0)
    ts = np.linspace(5, traj.ts[-1] - 5, 41)
    h = 1e-3
    for t in ts:
        s_m, _, _, _, _ = traj.at(t - h)
        s_0, i_0, _, _, _ = traj.at(t)
        s_p, _, _, _, _ = traj.at(t + h)
        second = (s_p - 2 * s_0 + s_m) / h**2
        condition = s_0 < (SIR.gamma / SIR.beta) * SIR.n + i_0
        if abs(second) > 1e-4 * SIR.n:  # skip the neighborhood of the root
            assert (second > 0) == condition


def test_peak_markers_ordering_and_bass_rate_peak_unreached():
    traj = integrate(SIR, 1e6 - 1, 1, 0)
    markers = peak_times(traj)
    assert markers["t_cr"] is not None
    assert markers["t_star_inflection"] is not None
    assert markers["t_star_rate"] is not None
    assert markers["t_star_inflection"] <= markers["t_star_rate"]

    bass = ModelParams(n=1000, beta=0.5, gamma=0.0, p=0.001, regime=Regime.BASS)
    traj_b = integrate(bass, 1000, 0, 0, t_max=60.0)
    markers_b = peak_times(traj_b)
    assert markers_b["t_star_rate"] is None
    assert markers_b["t_cr"] is not None


def test_unreached_markers_reported_not_raised():
    traj = integrate(SIR, 1e6 - 1, 1, 0, t_max=5.0)
    markers = peak_times(traj)
    assert markers["t_cr"] is None
    assert markers["t_star_rate"] is None


def test_peak_ratio_window_and_growth():
    """t_cr / t_star_rate sits in (0.55, 0.80) at n=1e8 and increases with n."""
    ratios = []
    for n in [1e6, 1e8]:
        params = ModelParams(n=n, beta=0.5, gamma=0.25, regime=Regime.SIR)
        traj = integrate(params, n - 1, 1, 0)
        markers = peak_times(traj)
        ratios.append(markers["t_cr"] / markers["t_star_rate"])
    assert 0.55 < ratios[-1] < 0.80
    assert ratios[1] > ratios[0]


def test_peak_bounds_values_and_sandwich():
    params = ModelParams(n=1e6, beta=0.5, gamma=0.25, regime=Regime.SIR)
    bounds = peak_bounds(params, c0=1, i0=1)
    assert bounds.nu1 == pytest.approx(0.5**1.5)
    assert bounds.nu2 == pytest.approx(1.0)
    assert bounds.rho1 == pytest.approx(1 - 1 / math.log(math.log(1e6)))
    traj = integrate(params, 1e6 - 1, 1, 0)
    markers = peak_times(traj)
    assert bounds.t_cr_lower <= markers["t_cr"]
    assert markers["t_star_rate"] <= bounds.t_star_upper


def test_peak_bounds_ratio_trend():
    """The upper/lower bound ratio falls toward its limit 3/2 as n grows."""
    ratios = []
    for exp in range(6, 15, 2):
        params = ModelParams(n=10.0**exp, beta=0.5, gamma=0.25, regime=Regime.SIR)
        b = peak_bounds(params, c0=1, i0=1)
        ratios.append(b.t_star_upper / b.t_cr_lower)
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    assert ratios[-1] > 1.5


def test_peak_bounds_hypothesis_errors():
    with pytest.raises(ValidationError, match="beta > gamma"):
        peak_bounds(ModelParams(n=1e6, beta=0.25, gamma=0.5, regime=Regime.SIR), 1, 1)
    with pytest.raises(ValidationError, match="log log"):
        peak_bounds(ModelParams(n=8, beta=0.5, gamma=0.25, regime=Regime.SIR), 1, 1)
    with pytest.raises(ValidationError, match="rho1"):
        # gamma/beta = 0.96 needs enormous n before rho1 exceeds it
        peak_bounds(ModelParams(n=1e6, beta=0.5, gamma=0.48, regime=Regime.SIR), 1, 1)


@pytest.mark.parametrize("eta", [1.0, 0.37, 10.0])
def test_scaling_invariance(eta):
    params = ModelParams(n=1e5, beta=0.5, gamma=0.25, regime=Regime.SIR)
    dev = scaling_check(params, 1e5 - 40, 40, 0, eta)
    assert dev < 1e-7
    if eta == 1.0:
        assert dev == 0.0


def test_infected_lower_bound_at_fraction_times():
    """At the first time s/n = rho (rho from gamma/beta up to ~1), the
    infected count is at least n (1-rho)(beta rho - gamma)/(beta rho) - c0/2."""
    n = 1e6
    params = ModelParams(n=n, beta=0.5, gamma=0.25, regime=Regime.SIR)
    c0 = i0 = 1
    traj = integrate(params, n - c0, i0, 0)
    rho2 = params.gamma / params.beta
    for rho in np.linspace(rho2, 0.99, 9):
        t_rho = time_to_susceptible_fraction(traj, rho)
        assert t_rho is not None
        _, i_t, _, _, _ = traj.at(t_rho)
        bound = n * (1 - rho) * (params.beta * rho - params.gamma) / (params.beta * rho) - c0 / 2
        assert i_t >= bound - 1e-6 * n


def test_fraction_crossing_time_gap_bound():
    """t_{rho_b} - t_{rho_a} <= n (rho_a - rho_b) / (beta rho_b i(t_{rho_a}))
    for rho_a > rho_b >= gamma/beta."""
    n = 1e6
    params = ModelParams(n=n, beta=0.5, gamma=0.25, regime=Regime.SIR)
    traj = integrate(params, n - 1, 1, 0)
    rho2 = params.gamma / params.beta
    grid = np.linspace(0.95, rho2, 6)
    for rho_a, rho_b in zip(grid, grid[1:]):
        t_a = time_to_susceptible_fraction(traj, rho_a)
        t_b = time_to_susceptible_fraction(traj, rho_b)
        _, i_a, _, _, _ = traj.at(t_a)
        bound = n * (rho_a - rho_b) / (params.beta * rho_b * i_a)
        assert t_b - t_a <= bound * (1 + 1e-9)


def test_integrate_requires_consistent_initial_conditions():
    with pytest.raises(ValidationError):
        integrate(SIR, 1e6, 10, 0)  # s0 + i0 + r0 != n
    with pytest.raises(ValidationError):
        integrate(SIR, 1e6 - 1, 1, 0, t_max=-1.0)


def test_xi_triple_helper():
    params = ModelParams(n=100, beta=0.5, gamma=0.25, regime=Regime.SIR)
    s, i, r = xi_triple(params, 90.0, 10.0, 0.0)
    assert s == pytest.approx(90.0)
    assert r == pytest.approx(10.0)
    assert i == pytest.approx(0.0)


def test_distinguishability_smoke():
    """Distinct parameter tuples produce measurably different infection
    curves even when the early growth rates coincide; identical tuples
    reproduce bit-comparable curves."""
    t_max, samples = 40.0, 600
    a = ModelParams(n=1e5, beta=0.5, gamma=0.25, regime=Regime.SIR)
    # same beta - gamma (identical early exponential rate), different tuple
    b = ModelParams(n=2e5, beta=0.45, gamma=0.20, regime=Regime.SIR)
    traj_a = integrate(a, 1e5 - 100, 100, 0, t_max=t_max, samples=samples)
    traj_b = integrate(b, 2e5 - 100, 100, 0, t_max=t_max, samples=samples)
    gap = np.max(np.abs(traj_a.i - traj_b.i)) / 1e5
    assert gap > 1e-2

    again = integrate(a, 1e5 - 100, 100, 0, t_max=t_max, samples=samples)
    assert np.max(np.abs(traj_a.i - again.i)) / 1e5 < 1e-12

    # adoption regime: different innovation rates split the curves too
    p1 = ModelParams(n=1000, beta=0.5, gamma=0.0, p=0.01, regime=Regime.BASS)
    p2 = ModelParams(n=1000, beta=0.52, gamma=0.0, p=0.005, regime=Regime.BASS)
    ts = np.linspace(0.0, 30.0, 300)
    assert np.max(np.abs(bass_closed_form(p1, ts) - bass_closed_form(p2, ts))) / 1000 > 1e-2


# ---------------------------------------------------------------------------
# The in-library Dormand-Prince 8(5,3) against scipy's solve_ivp(DOP853),
# which it replaced (tests/reference_kernels.py): equal bit for bit.
# ---------------------------------------------------------------------------

PARITY_CASES = [
    (ModelParams(n=1e4, beta=0.5, gamma=0.25, regime=Regime.SIR), (1e4 - 1, 1, 0), {}),
    (SIR, (1e6 - 1, 1, 0), {}),
    (ModelParams(n=1e8, beta=0.5, gamma=0.25, regime=Regime.SIR), (1e8 - 1, 1, 0), {}),
    (ModelParams(n=1000, beta=0.5, gamma=0.0, p=0.05, regime=Regime.BASS), (1000, 0, 0), {"t_max": 80.0}),
    (ModelParams(n=5000, beta=0.7, gamma=0.2, p=0.01, regime=Regime.GENERAL), (4990, 8, 2), {}),
    (ModelParams(n=12345.6, beta=0.5, gamma=0.25, regime=Regime.SIR), (12342.6, 3, 0), {}),
    (SIR, (1e6 - 1, 1, 0), {"tol": 1e-6}),
    (ModelParams(n=1e5, beta=0.2, gamma=0.3, regime=Regime.SIR), (1e5 - 50, 50, 0), {}),
    (ModelParams(n=1e4, beta=0.5, gamma=0.0, p=0.0, regime=Regime.BASS), (1e4 - 1, 1, 0), {}),
]
PARITY_IDS = [
    "sir-1e4", "sir-1e6", "sir-1e8", "bass-p", "general", "non-integer-n", "tol-1e-6",
    "subcritical", "bass-p0",
]


@pytest.mark.parametrize("params, ics, kw", PARITY_CASES, ids=PARITY_IDS)
def test_integrate_matches_solve_ivp_bit_for_bit(params, ics, kw):
    got = integrate(params, *ics, **kw)
    want = reference_integrate(params, *ics, **kw)
    for name in ("ts", "s", "i", "r", "c", "xi"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name

    steps = got._dense.ts
    assert np.array_equal(steps, want._dense.ts)
    t_max = got.ts[-1]
    mids = 0.5 * (steps[:-1] + steps[1:])
    outside = np.array([-1.0, -1e-9, t_max + 1e-9, 1.5 * t_max])
    probe = np.concatenate([steps, mids, outside])
    assert np.array_equal(got._dense(probe), want._dense(probe))
    assert np.array_equal(got._dense(probe[::-1]), want._dense(probe[::-1]))
    for t in [*steps[:3], steps[-1], mids[len(mids) // 2], *outside, 0, t_max / 3]:
        assert np.array_equal(got._dense(t), want._dense(t)), t
        assert got._dense(t).shape == want._dense(t).shape == (5,)

    assert peak_times(got) == peak_times(want)


def test_scaling_check_and_xi_form_match_solve_ivp(monkeypatch):
    params = ModelParams(n=1e5, beta=0.5, gamma=0.25, regime=Regime.SIR)
    got = [scaling_check(params, 1e5 - 40, 40, 0, eta) for eta in (1.0, 0.37, 10.0)]
    got.append(sir_xi_form(params, 1e5 - 50, 40, 10, 20.0))
    monkeypatch.setattr(fluid, "integrate", reference_integrate)
    want = [scaling_check(params, 1e5 - 40, 40, 0, eta) for eta in (1.0, 0.37, 10.0)]
    want.append(sir_xi_form(params, 1e5 - 50, 40, 10, 20.0))
    assert got == want


def test_dop853_tables_equal_scipys():
    from scipy.integrate._ivp import dop853_coefficients as ref

    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(_dop853, name) == getattr(ref, name)
    for name in ("C", "A", "B", "E3", "E5", "D"):
        assert np.array_equal(getattr(_dop853, name), getattr(ref, name)), name


def test_too_small_step_raises_like_solve_ivp_without_warnings():
    """solve_ivp warns about the tolerance and about overflow on the way;
    the port raises the same error and warns nothing."""
    with warnings.catch_warnings(), pytest.raises(ArithmeticError) as want:
        warnings.simplefilter("ignore")
        reference_integrate(SIR, 1e6 - 1, 1, 0, tol=1e-300)
    with warnings.catch_warnings(), pytest.raises(ArithmeticError) as got:
        warnings.simplefilter("error")
        integrate(SIR, 1e6 - 1, 1, 0, tol=1e-300)
    assert str(got.value) == str(want.value)


def test_tolerance_below_the_floor_matches_solve_ivp():
    """tol below 100 machine epsilons is raised to that floor, as solve_ivp
    does (it also warns; the port does not)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = reference_integrate(SIR, 1e6 - 1, 1, 0, t_max=40.0, tol=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = integrate(SIR, 1e6 - 1, 1, 0, t_max=40.0, tol=1e-15)
    assert np.array_equal(got.s, want.s) and np.array_equal(got.xi, want.xi)


def test_step_budget_ends_an_endless_horizon(monkeypatch):
    y0 = np.array([1 - 1e-6, 1e-6, 0.0, 1e-6, 0.0])

    def rhs(_t, y):
        force = 0.5 * y[0] * y[1]
        return np.array((-force, force - 0.25 * y[1], 0.25 * y[1], force, 0.5 * y[1]))

    assert _dop853.solve(rhs, y0, 100.0, rtol=1e-10, atol=1e-19).ts.size - 1 < 200
    monkeypatch.setattr(_dop853, "MAX_STEPS", 50)
    with pytest.raises(ArithmeticError, match="no end after 50 steps"):
        _dop853.solve(rhs, y0, 1e300, rtol=1e-10, atol=1e-19)


@pytest.mark.parametrize("t_max, tol", [(math.nan, 1e-10), (math.inf, 1e-10), (50.0, math.nan), (50.0, math.inf)])
def test_integrate_refuses_non_finite_horizon_or_tolerance(t_max, tol):
    with pytest.raises(ValidationError, match="finite"):
        integrate(SIR, 1e6 - 1, 1, 0, t_max=t_max, tol=tol)


def test_dense_output_refuses_two_dimensional_times():
    traj = integrate(SIR, 1e6 - 1, 1, 0, t_max=10.0)
    with pytest.raises(ValueError, match="1-D"):
        traj._dense(np.zeros((2, 2)))
