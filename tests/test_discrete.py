import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difflim.core import ModelParams, Regime, RngStream, ValidationError
from difflim.discrete import (
    CountSeries,
    OptimizerConfig,
    _log_factorial,
    fit_mle,
    loglik,
    peaked_set,
    poisson_logpmf,
    predict_peak,
    read_counts_csv,
    simulate_discrete,
    write_counts_csv,
)

SIR = ModelParams(n=10_000, beta=0.5, gamma=0.25, regime=Regime.SIR)


def _series(delta_c, delta_r=None, i_init=1, r_init=0, iid="t"):
    return CountSeries(
        instance_id=iid,
        i_init=i_init,
        r_init=r_init,
        delta_c=np.array(delta_c, dtype=np.int64),
        delta_r=None if delta_r is None else np.array(delta_r, dtype=np.int64),
    )


def test_simulate_all_zero_when_nothing_can_move():
    params = ModelParams(n=100, beta=0.5, gamma=0.0, p=0.0)
    s = simulate_discrete(params, i_init=0, r_init=0, horizon=10, rng=RngStream(seed=0))
    assert np.all(s.delta_c == 0)
    assert np.all(s.delta_r == 0)


def test_simulate_no_recoveries_at_gamma_zero():
    params = ModelParams(n=1000, beta=0.5, gamma=0.0, p=0.001, regime=Regime.BASS)
    s = simulate_discrete(params, i_init=5, r_init=0, horizon=30, rng=RngStream(seed=1))
    assert np.all(s.delta_r == 0)
    assert s.delta_c.sum() > 0


def test_simulate_first_epoch_mean():
    """Mean of the first-epoch count matches its rate within 3 sigma."""
    params = SIR
    i_init = 50
    lam = (params.a + params.beta * i_init) * (params.n - i_init) / params.n
    reps = 10_000
    draws = np.array(
        [
            simulate_discrete(params, i_init, 0, 1, RngStream(seed=4, stream_id=r)).delta_c[0]
            for r in range(reps)
        ]
    )
    se = math.sqrt(lam / reps)
    assert abs(draws.mean() - lam) < 3 * se


def test_simulate_compartments_never_negative():
    params = ModelParams(n=60, beta=2.0, gamma=1.5, regime=Regime.SIR)
    s = simulate_discrete(params, i_init=30, r_init=0, horizon=50, rng=RngStream(seed=9))
    cum_c = np.cumsum(s.delta_c)
    assert cum_c[-1] + 30 <= 60  # S never overdrawn
    i_path = 30 + np.cumsum(s.delta_c) - np.cumsum(s.delta_r)
    assert np.all(i_path >= 0)


def test_loglik_all_zero_series():
    s = _series([0, 0, 0], [0, 0, 0], i_init=0)
    assert loglik(s, a=0.0, beta=0.5, n=100, gamma_known=0.25) == 0.0


def test_loglik_single_epoch_value():
    # one epoch, count 3 at rate 2: 3 log 2 - 2 - log 3!
    s = _series([3], [0], i_init=20, r_init=0)
    n = 100.0
    beta = 2.0 * n / (20 * (n - 20))  # makes lambda = 2 exactly
    val = loglik(s, a=0.0, beta=beta, n=n, gamma_known=0.0)
    assert val == pytest.approx(3 * math.log(2) - 2 - math.log(6), rel=1e-12)


def test_loglik_impossible_count_is_minus_inf():
    s = _series([3], [0], i_init=0)
    assert loglik(s, a=0.0, beta=0.5, n=100, gamma_known=0.0) == -math.inf


def test_poisson_logpmf_conventions():
    assert poisson_logpmf(np.array([0.0]), np.array([0.0]))[0] == 0.0
    assert poisson_logpmf(np.array([2.0]), np.array([0.0]))[0] == -math.inf
    assert poisson_logpmf(np.array([2.0]), np.array([1.5]))[0] == pytest.approx(
        2 * math.log(1.5) - 1.5 - math.log(2)
    )


def _gammaln_logpmf(x, lam):
    """poisson_logpmf as it was, on scipy.special.gammaln."""
    from scipy.special import gammaln

    x, lam = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(lam, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = x * np.log(lam) - lam - gammaln(x + 1.0)
    out = np.where(lam > 0, vals, -np.inf)
    return np.where((lam == 0) & (x == 0), 0.0, out)


def test_log_factorial_matches_gammaln_on_counts():
    from scipy.special import gammaln

    x = np.concatenate([np.arange(0.0, 200_001.0), np.unique(np.geomspace(2e5, 1e12, 2000).round())])
    got, want = _log_factorial(x), gammaln(x + 1.0)
    pos = want > 0
    assert np.array_equal(got[~pos], want[~pos])  # log 0! = log 1! = 0
    assert np.max(np.abs(got[pos] - want[pos]) / want[pos]) <= 1e-15


def test_poisson_logpmf_matches_gammaln_form():
    """Only the log x! term changed, so the two forms differ by at most
    1e-15 of the terms' magnitude (relative to the value itself the
    difference can be larger, where x log lam - lam and log x! cancel)."""
    x = np.arange(0.0, 5001.0)[:, None]
    lam = np.array([0.0, 1e-3, 0.5, 1.0, 3.0, 10.0, 100.0, 1000.0, 5000.0])[None, :]
    got, want = poisson_logpmf(x, lam), _gammaln_logpmf(x, lam)
    # lam = 0: p(0; 0) = 1 and p(x > 0; 0) = 0
    assert got[0, 0] == 0.0 and np.all(got[1:, 0] == -np.inf)
    assert np.array_equal(got[:, 0], want[:, 0])
    scale = np.abs(x * np.log(lam[:, 1:])) + lam[:, 1:] + _log_factorial(x)
    assert np.all(np.abs(got[:, 1:] - want[:, 1:]) <= 1e-15 * scale)


def test_poisson_logpmf_below_minus_one_as_before():
    """math.lgamma raises at its poles and on overflow, where gammaln gave
    +inf; the values below -1 stay what they were."""
    x = np.array([-1.0, -2.0, -3.0, -7.0, -1e6, -1.5, -2.5, -math.inf, 1e306])
    lam = np.array([0.5, 2.0, 3.0, 1.0, 1.0, 2.0, 0.5, 2.0, 1.0])
    got, want = poisson_logpmf(x, lam), _gammaln_logpmf(x, lam)
    assert np.array_equal(got[:5], np.full(5, -np.inf))
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_loglik_prefers_truth_over_halved_population():
    """loglik(truth) beats loglik(n/2) on long series in >= 95 of 100
    replicates."""
    wins = 0
    for r in range(100):
        s = simulate_discrete(SIR, 20, 0, 60, RngStream(seed=100, stream_id=r))
        good = loglik(s, 0.0, 0.5, 10_000, 0.25)
        bad = loglik(s, 0.0, 0.5, 5_000, 0.25)
        wins += good >= bad
    assert wins >= 95


def test_loglik_maximized_near_truth_on_grid():
    s = simulate_discrete(SIR, 20, 0, 60, RngStream(seed=17))
    grid = np.array([2000, 5000, 8000, 10_000, 12_000, 20_000, 50_000], dtype=float)
    vals = [loglik(s, 0.0, 0.5, n, 0.25) for n in grid]
    best = grid[int(np.argmax(vals))]
    assert 8000 <= best <= 12_000


def test_fit_mle_recovers_parameters_through_peak():
    s = simulate_discrete(SIR, 10, 0, 60, RngStream(seed=1))
    fit = fit_mle(s, gamma_known=0.25, n_max=1e6, cfg=OptimizerConfig(starts=16, seed=0, fit_a=False))
    assert fit.converged
    assert abs(fit.n_hat - 10_000) / 10_000 < 0.10
    assert abs(fit.beta_hat - 0.5) / 0.5 < 0.10
    assert not fit.recoveries_imputed


def test_fit_mle_refit_does_not_improve():
    s = simulate_discrete(SIR, 10, 0, 50, RngStream(seed=6))
    cfg = OptimizerConfig(starts=8, seed=0, fit_a=False)
    fit = fit_mle(s, gamma_known=0.25, n_max=1e6, cfg=cfg)
    refit = fit_mle(s, gamma_known=0.25, n_max=1e6, cfg=cfg)
    assert refit.loglik == pytest.approx(fit.loglik, abs=1e-9)
    # direct evaluation at the solution matches the reported objective
    val = loglik(s, fit.a_hat, fit.beta_hat, fit.n_hat, 0.25)
    assert val == pytest.approx(fit.loglik, rel=1e-12)


def test_fit_mle_invariant_to_id_and_row_order():
    s = simulate_discrete(SIR, 10, 0, 40, RngStream(seed=3))
    cfg = OptimizerConfig(starts=8, seed=0, fit_a=False)
    fit1 = fit_mle(s, 0.25, 1e6, cfg)
    renamed = CountSeries(
        instance_id="other", i_init=s.i_init, r_init=s.r_init, delta_c=s.delta_c, delta_r=s.delta_r
    )
    fit2 = fit_mle(renamed, 0.25, 1e6, cfg)
    assert fit1.n_hat == fit2.n_hat
    assert fit1.beta_hat == fit2.beta_hat


def test_fit_mle_validates_inputs():
    empty = _series([0, 0], [0, 0], i_init=1)
    with pytest.raises(ValidationError, match="positive counts"):
        fit_mle(empty, 0.25, 1e6)
    s = simulate_discrete(SIR, 10, 0, 20, RngStream(seed=2))
    with pytest.raises(ValidationError, match="below"):
        fit_mle(s, 0.25, n_max=1.0)


def test_peaked_set_examples():
    rising = _series([1, 2, 3, 4])
    assert peaked_set([rising], 0.5, 4) == set()
    humped = _series([5, 10, 4], iid="a")
    assert peaked_set([humped], 0.5, 3) == {"a"}
    # near gamma1 = 1: included exactly when the last increment is not the
    # running maximum
    assert peaked_set([rising], 0.999999, 4) == set()
    falling = _series([5, 3], iid="b")
    assert peaked_set([falling], 0.999999, 2) == {"b"}


def test_peaked_set_monotone_in_gamma1():
    rng = np.random.default_rng(5)
    collection = [
        _series(rng.integers(0, 20, size=12), iid=str(j)) for j in range(25)
    ]
    small = peaked_set(collection, 0.3, 12)
    large = peaked_set(collection, 0.8, 12)
    assert small <= large


@given(st.floats(min_value=0.05, max_value=0.45), st.floats(min_value=0.5, max_value=0.95))
@settings(max_examples=20, deadline=None)
def test_peaked_set_monotone_property(g1, g2):
    rng = np.random.default_rng(11)
    collection = [_series(rng.integers(0, 30, size=8), iid=str(j)) for j in range(10)]
    assert peaked_set(collection, g1, 8) <= peaked_set(collection, g2, 8)


def test_predict_peak_bass_reaches_population():
    """With no recoveries the infected count absorbs the whole fitted
    population."""
    from difflim.discrete import FitResult

    params = ModelParams(n=500, beta=0.8, gamma=0.0, p=0.01, regime=Regime.BASS)
    s = simulate_discrete(params, 5, 0, 10, RngStream(seed=8))
    fit = FitResult(
        a_hat=5.0, beta_hat=0.8, n_hat=500.0, loglik=0.0, converged=True,
        bounds={}, trace=[],
    )
    fc = predict_peak(s, fit, gamma_known=0.0, horizon=200, replicates=50, rng=RngStream(seed=9))
    assert fc.mean == pytest.approx(500.0, rel=1e-9)


def test_predict_peak_tracks_fluid_peak():
    """At large n the forecast mean approaches the mean-field peak."""
    from difflim.fluid import integrate, peak_times

    n = 100_000
    params = ModelParams(n=n, beta=0.5, gamma=0.25, regime=Regime.SIR)
    s = simulate_discrete(params, 100, 0, 10, RngStream(seed=12))
    from difflim.discrete import FitResult

    fit = FitResult(
        a_hat=0.0, beta_hat=0.5, n_hat=float(n), loglik=0.0, converged=True,
        bounds={}, trace=[],
    )
    fc = predict_peak(s, fit, gamma_known=0.25, horizon=120, replicates=60, rng=RngStream(seed=13))
    # mean-field peak of the unit-step recursion differs from the ODE peak
    # by the discretization, so allow 10 percent
    traj = integrate(params, n - 100, 100, 0)
    peak_times(traj)
    i_peak_fluid = float(np.max(traj.i))
    assert abs(fc.mean - i_peak_fluid) / i_peak_fluid < 0.10


def test_predict_peak_monotone_in_population():
    from difflim.discrete import FitResult

    s = simulate_discrete(SIR, 50, 0, 8, RngStream(seed=21))
    means = []
    for n_hat in (5_000.0, 10_000.0, 20_000.0):
        fit = FitResult(
            a_hat=0.0, beta_hat=0.5, n_hat=n_hat, loglik=0.0, converged=True,
            bounds={}, trace=[],
        )
        fc = predict_peak(s, fit, 0.25, horizon=100, replicates=40, rng=RngStream(seed=22))
        means.append(fc.mean)
    assert means[0] < means[1] < means[2]


def test_counts_csv_round_trip(tmp_path):
    a = simulate_discrete(SIR, 7, 2, 25, RngStream(seed=5), instance_id="alpha")
    b = simulate_discrete(SIR, 3, 0, 25, RngStream(seed=6), instance_id="beta")
    path = tmp_path / "counts.csv"
    write_counts_csv([a, b], path)
    back = {s.instance_id: s for s in read_counts_csv(path)}
    assert set(back) == {"alpha", "beta"}
    for orig in (a, b):
        got = back[orig.instance_id]
        assert got.i_init == orig.i_init
        assert got.r_init == orig.r_init
        np.testing.assert_array_equal(got.delta_c, orig.delta_c)
        np.testing.assert_array_equal(got.delta_r, orig.delta_r)


def _skeleton_deviation(n: int, seed: int, horizon: int = 40) -> float:
    """Max relative gap between a sampled path and the mean recursion
    (Poisson draws replaced by their means), at fluid-scale initial
    conditions i_init = n/100."""
    params = ModelParams(n=n, beta=0.5, gamma=0.25, regime=Regime.SIR)
    i_init = n // 100
    s = simulate_discrete(params, i_init, 0, horizon, RngStream(seed=seed))
    s_det, i_det = float(n - i_init), float(i_init)
    det_c = []
    for _ in range(horizon):
        lam = (params.beta * i_det) * s_det / n
        mu = params.gamma * i_det
        s_det -= lam
        i_det += lam - mu
        det_c.append(n - s_det)
    cum_c = i_init + np.cumsum(s.delta_c)
    return float(np.max(np.abs(cum_c - np.array(det_c)) / np.array(det_c)))


def test_stochastic_matches_deterministic_skeleton_at_scale():
    """The sampled path tracks the mean recursion within the law-of-large-
    numbers scale 1/sqrt(n), and the gap shrinks as n grows."""
    dev_small = _skeleton_deviation(1_000_000, seed=33)
    assert dev_small < 50 / math.sqrt(1_000_000)
    dev_large = _skeleton_deviation(100_000_000, seed=33)
    assert dev_large < 50 / math.sqrt(100_000_000)
    assert dev_large < dev_small


def test_time_varying_beta_vector():
    params = ModelParams(n=1000, beta=0.5, gamma=0.0, p=0.0)
    beta_t = np.array([0.0, 0.0, 5.0])
    s = simulate_discrete(params, 10, 0, 3, RngStream(seed=40), beta_t=beta_t)
    assert s.delta_c[0] == 0 and s.delta_c[1] == 0
    val = loglik(s, 0.0, 0.5, 1000, 0.0, beta_t=beta_t)
    assert math.isfinite(val)
    with pytest.raises(ValidationError):
        simulate_discrete(params, 10, 0, 4, RngStream(seed=41), beta_t=beta_t)


# ---------------------------------------------------------------------------
# The profile-likelihood fit against the multi-start Nelder-Mead search it
# replaced (tests/reference_kernels.py).
# ---------------------------------------------------------------------------


def _cut(series, cutoff):
    t_cut = int(np.searchsorted(series.i_init + np.cumsum(series.delta_c), cutoff) + 1)
    dr = None if series.delta_r is None else series.delta_r[:t_cut]
    return CountSeries(series.instance_id, series.i_init, series.r_init, series.delta_c[:t_cut], dr)


_FULL = simulate_discrete(SIR, 10, 0, 60, RngStream(seed=1))
_SHORT = _cut(_FULL, 465)
_UNOBSERVED = CountSeries("u", _FULL.i_init, _FULL.r_init, _FULL.delta_c)
_INNOVATION = simulate_discrete(
    ModelParams(n=10_000, beta=0.5, gamma=0.25, p=1e-4), 10, 0, 60, RngStream(seed=2)
)

FIT_CASES = {
    "full": (_FULL, 1e6, dict(fit_a=False)),
    "full-fit-a": (_FULL, 1e6, dict(fit_a=True)),
    "innovation-fit-a": (_INNOVATION, 1e6, dict(fit_a=True)),
    "truncated": (_SHORT, 1e6, dict(fit_a=False)),
    "truncated-fit-a": (_SHORT, 1e6, dict(fit_a=True)),
    "n-at-n-max": (_FULL, 8000.0, dict(fit_a=False)),
    "beta-at-beta-max": (_FULL, 1e6, dict(fit_a=True, beta_max=0.3)),
    "imputed-recoveries": (_UNOBSERVED, 1e6, dict(fit_a=False)),
    "imputed-recoveries-fit-a": (_UNOBSERVED, 1e6, dict(fit_a=True)),
}


@pytest.mark.parametrize("case", sorted(FIT_CASES))
def test_profile_fit_at_least_matches_nelder_mead(case):
    from reference_kernels import reference_fit_mle

    series, n_max, kw = FIT_CASES[case]
    fit = fit_mle(series, 0.25, n_max, OptimizerConfig(**kw))
    ref = reference_fit_mle(series, 0.25, n_max, starts=12, seed=0, **kw)
    assert fit.converged
    assert fit.loglik >= ref.loglik - 1e-9 * abs(ref.loglik)
    assert fit.loglik == loglik(series, fit.a_hat, fit.beta_hat, fit.n_hat, 0.25)
    assert series.c_total <= fit.n_hat <= n_max
    assert 0.0 <= fit.beta_hat <= kw.get("beta_max", 2.0)
    assert 0.0 <= fit.a_hat <= (10.0 if kw["fit_a"] else 0.0)
    assert fit.recoveries_imputed == (series.delta_r is None)


@pytest.mark.parametrize("case", sorted(FIT_CASES))
def test_profile_fit_with_lgamma_matches_gammaln(case, monkeypatch):
    """log x! from math.lgamma moves only the constant term of the
    likelihood, so the fitted point and the trace's (n, a, beta) are
    unchanged and every loglik moves by under 1e-13 relative."""
    from scipy.special import gammaln

    series, n_max, kw = FIT_CASES[case]
    fit = fit_mle(series, 0.25, n_max, OptimizerConfig(**kw))
    monkeypatch.setattr("difflim.discrete._log_factorial", lambda x: gammaln(np.asarray(x, dtype=float) + 1.0))
    ref = fit_mle(series, 0.25, n_max, OptimizerConfig(**kw))
    assert (fit.n_hat, fit.a_hat, fit.beta_hat) == (ref.n_hat, ref.a_hat, ref.beta_hat)
    assert fit.loglik == pytest.approx(ref.loglik, rel=1e-13, abs=0)
    for t, r in zip(fit.trace, ref.trace, strict=True):
        assert (t["n"], t["a"], t["beta"]) == (r["n"], r["a"], r["beta"])
        assert t["loglik"] == pytest.approx(r["loglik"], rel=1e-13, abs=0)


def test_profile_fit_cases_reach_their_edge():
    """The named cases do what their names say."""
    def fit(case):
        series, n_max, kw = FIT_CASES[case]
        return fit_mle(series, 0.25, n_max, OptimizerConfig(**kw))

    assert _SHORT.horizon < _FULL.horizon
    assert fit("n-at-n-max").n_hat == 8000.0
    assert fit("beta-at-beta-max").beta_hat == 0.3
    assert fit("full-fit-a").a_hat == 0.0
    assert 0.0 < fit("innovation-fit-a").a_hat < 10.0
    assert fit("imputed-recoveries").recoveries_imputed


def test_profile_fit_trace_and_counters():
    fit = fit_mle(_FULL, 0.25, 1e6, OptimizerConfig(fit_a=False))
    assert len(fit.trace) == 64
    ns = [t["n"] for t in fit.trace]
    assert ns[0] == _FULL.c_total and ns[-1] == 1e6 and ns == sorted(ns)
    for t in fit.trace:
        assert t["loglik"] <= fit.loglik
        assert t["loglik"] == pytest.approx(loglik(_FULL, t["a"], t["beta"], t["n"], 0.25), rel=1e-12)
    assert fit.loglik_evals > len(fit.trace)


def test_profile_fit_ignores_starts_and_seed():
    a = fit_mle(_SHORT, 0.25, 1e6, OptimizerConfig(starts=12, seed=0, fit_a=True))
    b = fit_mle(_SHORT, 0.25, 1e6, OptimizerConfig(starts=3, seed=99, fit_a=True))
    assert (a.a_hat, a.beta_hat, a.n_hat, a.loglik) == (b.a_hat, b.beta_hat, b.n_hat, b.loglik)


def test_fit_with_no_feasible_rate_is_not_converged():
    """A count after an epoch with no infected unit needs a > 0; with a
    pinned at 0 every profile point is -inf and the fit says so."""
    s = _series([0, 2, 1], [1, 0, 0], i_init=1)
    fit = fit_mle(s, 0.25, 100.0, OptimizerConfig(fit_a=False))
    assert fit.loglik == -math.inf and not fit.converged
    fit = fit_mle(s, 0.25, 100.0, OptimizerConfig(fit_a=True))
    assert math.isfinite(fit.loglik) and fit.converged and fit.a_hat > 0.0
