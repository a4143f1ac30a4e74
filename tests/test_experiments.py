import json

import numpy as np
import pytest

from difflim import experiments
from difflim.core import ValidationError
from difflim.experiments import (
    STUDY_GRID_KEYS,
    STUDY_OPTIONAL_KEYS,
    STUDY_SCHEMAS,
    StudyConfig,
    default_sir_i0,
    mle_population_bass,
    run_study,
)


def test_default_sir_i0_is_threshold_or_forty():
    assert default_sir_i0(0.5, 0.25) == 82  # ceil of the survival threshold
    assert default_sir_i0(0.5, 0.01) == 40  # threshold is tiny, floor applies


def test_config_validation():
    with pytest.raises(ValidationError):
        StudyConfig(study="FisherScaling", grid={}, replicates=1)
    with pytest.raises(ValidationError):
        StudyConfig(study="FisherScaling", grid={"ns": [100]}, replicates=0)
    with pytest.raises(ValidationError):
        run_study(StudyConfig(study="NoSuchStudy", grid={"x": 1}))


def test_every_study_declares_its_required_grid_keys():
    assert set(STUDY_GRID_KEYS) == set(STUDY_SCHEMAS) == set(STUDY_OPTIONAL_KEYS)


@pytest.mark.parametrize(
    "study, grid, key",
    [
        ("FisherScaling", {"regime": "bass"}, "ns"),
        ("Coverage", {"n": 1e5, "m": 300.0}, "m"),
        ("Coverage", {"n": float("nan"), "m": 300}, "n"),
        ("RelErrorScaling", {"n": 1e4, "ms": []}, "ms"),
        ("RelErrorScaling", {"n": 1e4, "ms": [100, True]}, "ms"),
        ("TimeRatio", {"alphas": [float("inf")], "ns": [1e4]}, "alphas"),
        ("Dominance", {"points": [{"n": -1, "m": 10}]}, "points"),
    ],
)
def test_run_study_names_the_grid_key_it_refuses(study, grid, key):
    with pytest.raises(ValidationError, match=f"{study} grid .*'{key}'"):
        run_study(StudyConfig(study, grid))


def test_fisher_scaling_rejects_overlapping_streams(monkeypatch):
    """Grid point idx owns streams 1000*idx + chunk.  A replicate count
    needing more than 1000 chunks of 4096 is refused before any simulation;
    one needing exactly 1000 gets past the guard."""
    def refuse(*args, **kwargs):
        raise AssertionError("simulated despite overlapping streams")

    monkeypatch.setattr(experiments, "fisher_sir_mc", refuse)
    grid = {"regime": "sir", "ns": [1e3, 1e4], "i0": 82}
    with pytest.raises(ValidationError, match="1001 Monte-Carlo chunks"):
        run_study(StudyConfig("FisherScaling", grid, replicates=1000 * 4096 + 1))
    with pytest.raises(AssertionError, match="simulated"):
        run_study(StudyConfig("FisherScaling", grid, replicates=1000 * 4096))


def test_fisher_scaling_bass_rows():
    cfg = StudyConfig(study="FisherScaling", grid={"regime": "bass", "ns": [1e3, 1e4]}, seed=1)
    res = run_study(cfg)
    assert len(res.rows) == 2
    assert all(r["pass"] for r in res.rows)
    assert res.summary["pass_spread"]
    assert res.metadata["seed"] == 1


def test_time_ratio_study_rows():
    cfg = StudyConfig(
        study="TimeRatio",
        grid={"alphas": [1.0, 0.25], "ns": [1e4, 1e6, 1e8], "beta": 0.5},
        seed=0,
    )
    res = run_study(cfg)
    assert len(res.rows) == 6
    assert res.summary["pass_monotone_up_alpha_1.0"]
    assert res.summary["pass_monotone_down_alpha_0.25"]


def test_coverage_study_small():
    cfg = StudyConfig(
        study="Coverage",
        grid={"n": 1e5, "m": 400, "beta": 0.5, "gamma": 0.25},
        replicates=300,
        seed=3,
    )
    res = run_study(cfg)
    row = res.rows[0]
    assert row["i0"] == 82
    assert 0 <= row["label"] <= 1
    assert row["coverage"] >= row["threshold"]


def test_dominance_study_small():
    cfg = StudyConfig(
        study="Dominance",
        grid={"points": [{"n": 10_000, "m": 400, "i0": 2}]},
        replicates=2000,
        seed=5,
    )
    res = run_study(cfg)
    assert res.rows[0]["pass"]
    assert res.rows[0]["p_tau"] <= res.rows[0]["p_tau_walk"] + res.rows[0]["slack"]


def test_dominance_study_rejects_rate_violation():
    cfg = StudyConfig(
        study="Dominance",
        grid={"points": [{"n": 1000, "m": 900, "i0": 2}]},
        replicates=100,
        seed=5,
    )
    with pytest.raises(ValidationError, match="rate condition"):
        run_study(cfg)


def test_fluid_sandwich_study_small():
    cfg = StudyConfig(study="FluidSandwich", grid={"ns": [1e6, 1e8]}, seed=0)
    res = run_study(cfg)
    assert all(r["pass"] for r in res.rows)
    assert res.summary["pass_ratio_increasing"]


def test_rel_error_study_structure_and_floor_law():
    """On the m = n^(2/3) grid the empirical error respects the floor and
    doubling m divides the floor by ~8."""
    cfg = StudyConfig(
        study="RelErrorScaling",
        grid={"n": 1e4, "ms": [465, 930]},
        replicates=60,
        seed=9,
    )
    res = run_study(cfg)
    assert len(res.rows) == 2
    ratio = res.summary["floor_drop"]
    assert ratio == pytest.approx(8.0, rel=0.10)
    assert all(r["mean_rel_error"] >= 0.8 * r["cr_floor"] for r in res.rows)
    assert all(r["pass"] for r in res.rows)


def test_rel_error_study_documents_bias_in_deep_unlearnable_regime():
    """Far below the learnability threshold the floor exceeds anything the
    boxed search can express, so the (biased) maximizer sits below it; the
    row records that honestly."""
    cfg = StudyConfig(
        study="RelErrorScaling",
        grid={"n": 1e4, "ms": [100]},
        replicates=40,
        seed=9,
    )
    res = run_study(cfg)
    row = res.rows[0]
    window_max = (1e3 * (100 + 1) / 1e4 - 1) ** 2
    assert row["cr_floor"] > window_max
    assert not row["pass"]


def test_rel_error_floor_exact_doubling():
    """Halving m raises the floor by the cube within a small correction at
    m much smaller than n."""
    from difflim.fisher import cramer_rao_rel_error, fisher_bass

    n = 1e6
    f1 = cramer_rao_rel_error(fisher_bass(n, 1, 500))
    f2 = cramer_rao_rel_error(fisher_bass(n, 1, 1000))
    assert f1 / f2 == pytest.approx(8.0, rel=0.01)


def test_bass_population_mle_sanity():
    """The 1-D likelihood maximizer lands on the truth for noiseless
    holding times (set to their means)."""
    n, beta, a, m, i0 = 5000.0, 0.5, 1.0, 600, 1
    d = np.arange(m) + i0
    lam = (beta * d + a) * (n - d) / n
    t_col = 1.0 / lam
    [n_hat] = mle_population_bass(np.array([((beta * d + a) * d) @ t_col]), m, i0)
    assert n_hat == pytest.approx(n, rel=2e-3)


def test_study_bit_reproducibility(tmp_path):
    grid = {"n": 1e4, "ms": [100]}
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    cfg1 = StudyConfig(study="RelErrorScaling", grid=grid, replicates=30, seed=7, output_path=str(out1))
    cfg2 = StudyConfig(study="RelErrorScaling", grid=grid, replicates=30, seed=7, output_path=str(out2))
    run_study(cfg1)
    run_study(cfg2)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    # different seed changes the Monte-Carlo rows
    cfg3 = StudyConfig(study="RelErrorScaling", grid=grid, replicates=30, seed=8, output_path=str(tmp_path / "c"))
    run_study(cfg3)
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()


def test_study_csv_golden_schema(tmp_path):
    """Column layout is frozen per study."""
    assert STUDY_SCHEMAS["RelErrorScaling"] == [
        "n", "m", "replicates", "mean_rel_error", "mean_rel_error_se", "median_rel_error",
        "fisher_total", "cr_floor", "efficiency", "upper_hits", "pass",
    ]
    assert STUDY_SCHEMAS["FisherScaling"] == [
        "regime", "n", "m", "i0", "total", "stderr", "scaling_ratio", "pass",
    ]
    assert STUDY_SCHEMAS["TimeRatio"] == ["alpha", "n", "p", "k_cr", "k_star", "ratio", "pass"]
    cfg = StudyConfig(
        study="TimeRatio",
        grid={"alphas": [1.0], "ns": [1e4]},
        seed=0,
        output_path=str(tmp_path / "tr"),
    )
    run_study(cfg)
    header = (tmp_path / "tr.csv").read_text().splitlines()[0]
    assert header == "alpha,n,p,k_cr,k_star,ratio,pass"
    obj = json.loads((tmp_path / "tr.json").read_text())
    assert set(obj) == {"study", "rows", "summary", "metadata"}
    assert "wall_time" not in json.dumps(obj)


def test_config_json_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"study": "TimeRatio", "grid": {"alphas": [1.0], "ns": [1e4]}, "seed": 4}))
    cfg = StudyConfig.from_json(path)
    assert cfg.study == "TimeRatio"
    assert cfg.seed == 4
    assert cfg.replicates == 1


def test_population_mle_matches_per_replicate_golden_section():
    """All replicates at once (derivative root in log n) against one
    golden-section search per replicate (tests/reference_kernels.py): per
    replicate the reference loglik is no worse and n_hat agrees to 1e-4;
    each row's upper_hits and pass are unchanged.  m = 100 is the deep
    unlearnable row where many replicates sit at the upper bound."""
    from reference_kernels import reference_bass_loglik_scan, reference_mle_population_bass

    from difflim.core import ModelParams, Regime, RngStream
    from difflim.fisher import cramer_rao_rel_error, fisher_bass
    from difflim.simulate import simulate_paths

    n, beta, a, i0, R, seed = 1e4, 0.5, 0.5, 1, 100, 13
    ms = [100, 465, 1860]
    res = run_study(StudyConfig("RelErrorScaling", {"n": n, "ms": ms}, replicates=R, seed=seed))
    params = ModelParams(n=n, beta=beta, gamma=0.0, p=a / n, regime=Regime.BASS)
    for idx, (m, row) in enumerate(zip(ms, res.rows)):
        block = simulate_paths(params, i0, 0, m, RngStream(seed=seed, stream_id=500 * idx), R)
        d = np.arange(m) + i0
        w = (beta * d + a) * d
        new = mle_population_bass(w @ block.T, m, i0)
        old = np.array([reference_mle_population_bass(block.T[:, r], i0, beta, a) for r in range(R)])
        for r in range(R):
            at_new, at_old = reference_bass_loglik_scan(block.T[:, r], i0, beta, a, np.array([new[r], old[r]]))
            assert at_new >= at_old - 1e-9, (m, r)
        np.testing.assert_allclose(new, old, rtol=1e-4)
        assert mle_population_bass(np.array([w @ block.T[:, 7]]), m, i0)[0] == pytest.approx(new[7], rel=1e-12)
        old_hits = int(np.sum(old > 0.99 * 1e3 * (m + i0)))
        assert row["upper_hits"] == old_hits
        old_pass = float(np.mean((old - n) ** 2 / n ** 2)) >= 0.8 * cramer_rao_rel_error(fisher_bass(n, i0, m))
        assert row["pass"] == old_pass
        assert row["mean_rel_error_se"] > 0
    assert res.rows[0]["upper_hits"] > 0 and res.rows[-1]["upper_hits"] == 0


def test_digamma_matches_scipy():
    """The library psi against scipy.special.digamma on 1e5 log-spaced
    points of [1, 1e7] and on every argument the population MLE's bracket
    ends take at the benchmark's sizes (n = 1e4, m = 465 and 1860, i0 = 1),
    within 1e-14 of max(1, |psi|)."""
    from scipy.special import digamma

    x = [np.geomspace(1.0, 1e7, 100_000)]
    for m in (465, 1860):
        c_m = m + 1
        grid = np.exp(np.linspace(np.log(c_m * (1.0 + 1e-9)), np.log(1e3 * c_m), experiments.POPULATION_GRID))
        x += [grid, grid - m]  # n - i0 + 1 and n - i0 - m + 1
    x = np.concatenate(x)
    want = digamma(x)
    assert np.max(np.abs(experiments._digamma(x) - want) / np.maximum(1.0, np.abs(want))) <= 1e-14


@pytest.mark.parametrize("m, R", [(465, 200), (1860, 200), (1860, 1), (0, 5)])
def test_slab_products_match_block_product(m, R):
    """RelErrorScaling's v = w @ T summed slab by slab against the product
    on the collected block.  Both add the same m positive products in
    different orders, so each lies within about m unit roundoffs of the
    exact sum; the bound is m ulps of v."""
    from difflim.core import ModelParams, Regime, RngStream
    from difflim.simulate import simulate_paths

    n, beta, a, i0 = 1e4, 0.5, 0.5, 1
    params = ModelParams(n=n, beta=beta, gamma=0.0, p=a / n, regime=Regime.BASS)
    rng = RngStream(seed=11, stream_id=500)
    d = np.arange(m) + i0
    w = (beta * d + a) * d
    got = experiments._slab_products(params, i0, m, rng, R, w)
    want = w @ simulate_paths(params, i0, 0, m, rng, R).T
    assert got.shape == (R,)
    assert np.all(np.abs(got - want) <= m * np.finfo(float).eps * want)


def test_dominance_walk_chunks_match_one_draw():
    """The comparison walk drawn in row chunks gives the stopping flags of
    one (R, m) draw of the same stream."""
    from difflim.core import RngStream
    from difflim.fisher import compute_survival_threshold

    pt = {"n": 10_000, "m": 1_000, "i0": 2}
    R, seed = 300, 5
    assert R * pt["m"] > experiments.WALK_CHUNK_DOUBLES
    row = run_study(StudyConfig("Dominance", {"points": [pt]}, replicates=R, seed=seed)).rows[0]
    gen = RngStream(seed=seed, stream_id=0).substream(1).generator()
    walk = pt["i0"] + np.cumsum((gen.random((R, pt["m"])) < compute_survival_threshold(0.5, 0.25).p), axis=1)
    stopped = np.any(2 * walk <= pt["i0"] + np.arange(1, pt["m"] + 1)[None, :], axis=1)
    assert row["p_tau_walk"] == float(np.mean(stopped))


# R = 1025 is above the R at which the counts-only slabs skip the unread
# holding-time uniforms.
@pytest.mark.parametrize("R", [1, 300, 1025])
def test_dominance_rows_match_materializing_reference(R):
    from reference_kernels import reference_dominance_study

    points = [
        {"n": 10_000, "m": 1_000, "i0": 1},
        {"n": 20_000, "m": 2_000, "i0": 4, "beta": 0.6, "gamma": 0.2},
        {"n": 5_000, "m": 300, "i0": 2, "r0": 3},
    ]
    cfg = StudyConfig("Dominance", {"points": points}, replicates=R, seed=13)
    got, want = run_study(cfg), reference_dominance_study(cfg)
    assert got.rows == want.rows and got.summary == want.summary


@pytest.mark.parametrize(
    "grid, R",
    [({"n": 1e5, "m": 300}, 1000), ({"n": 1e5, "m": 300}, 1), ({"n": 2000, "m": 300, "i0": 2}, 500)],
    ids=["workload-size", "one-replicate", "extinction"],
)
def test_coverage_rows_match_materializing_reference(grid, R):
    from reference_kernels import reference_coverage_study

    cfg = StudyConfig("Coverage", grid, replicates=R, seed=17)
    got, want = run_study(cfg), reference_coverage_study(cfg)
    assert got.rows == want.rows and got.summary == want.summary


def test_dominance_memory_stays_below_one_path_array():
    """One Dominance point of the benchmark's size peaks far below one
    m x R float array."""
    from test_fisher import traced_peak_bytes

    pt = {"n": 20_000, "m": 2_000, "i0": 4, "beta": 0.6, "gamma": 0.2}
    R = 2500
    cfg = StudyConfig("Dominance", {"points": [pt]}, replicates=R, seed=1)
    assert traced_peak_bytes(lambda: run_study(cfg)) < 8 * pt["m"] * R / 4


@pytest.mark.parametrize("seed", [1, 2, 3, 42, 46])
def test_population_mle_early_stop_matches_64_bisections(seed, monkeypatch):
    """Stopping the bisection at the first iteration that moves no bracket
    end gives the bits of all 64 iterations, at the benchmark's
    RelErrorScaling sizes (n = 1e4, m = 465 and 1860, R = 200), and it
    does stop early."""
    from reference_kernels import reference_mle_population_bisect64

    from difflim.core import ModelParams, Regime, RngStream

    n, beta, i0, R = 1e4, 0.5, 1, 200
    a = beta
    params = ModelParams(n=n, beta=beta, gamma=0.0, p=a / n, regime=Regime.BASS)
    calls = []
    digamma = experiments._digamma
    monkeypatch.setattr(experiments, "_digamma", lambda x: calls.append(1) or digamma(x))
    for idx, m in enumerate((465, 1860)):
        d = np.arange(m, dtype=float) + i0
        rng = RngStream(seed=seed, stream_id=500 * idx)
        v = experiments._slab_products(params, i0, m, rng, R, (beta * d + a) * d)
        calls.clear()
        got = mle_population_bass(v, m, i0)
        assert 2 + 1 <= len(calls) < 2 + 64
        assert np.array_equal(got, reference_mle_population_bisect64(v, m, i0))
