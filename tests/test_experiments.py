import json

import numpy as np
import pytest

from difflim import experiments
from difflim.core import ValidationError
from difflim.experiments import (
    STUDY_SCHEMAS,
    StudyConfig,
    bass_loglik_scan,
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
    n_hat = mle_population_bass(t_col, i0, beta, a)
    assert n_hat == pytest.approx(n, rel=2e-3)
    # scan helper agrees with a direct dense evaluation
    grid = np.array([3000.0, 5000.0, 9000.0])
    vals = bass_loglik_scan(t_col, i0, beta, a, grid)
    assert int(np.argmax(vals)) == 1


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
        "n", "m", "replicates", "mean_rel_error", "median_rel_error",
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
