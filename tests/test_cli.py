import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import difflim
from difflim.cli import dispatch

SRC = str(Path(difflim.__file__).resolve().parents[1])


def run(argv):
    return dispatch(argv)


def test_simulate_writes_ledger_and_metadata(tmp_path):
    out = tmp_path / "ledger.csv"
    code = run([
        "simulate", "--model", "bass", "--N", "1000", "--beta", "0.5", "--p", "0.001",
        "--i0", "1", "--max-jumps", "100", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    text = out.read_text().splitlines()
    assert text[0] == "k,t,inter_arrival,kind,S,I,R,C"
    assert len(text) == 101
    assert (tmp_path / "ledger.csv.meta.json").exists()
    assert (tmp_path / "ledger.csv.params.json").exists()


def test_simulate_missing_population_exits_one(tmp_path, capsys):
    code = run(["simulate", "--model", "bass", "--max-jumps", "10", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error[validation]" in err
    assert "usage" in err


def test_strict_flag_rejects_subcritical(tmp_path, capsys):
    code = run([
        "fisher", "--model", "sir", "--N", "100", "--beta", "0.2", "--gamma", "0.5",
        "--max-jumps", "10", "--strict",
    ])
    assert code == 1
    assert "error[validation]" in capsys.readouterr().err


def test_simulate_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "simulate", "--model", "sir", "--N", "500", "--beta", "0.5", "--gamma", "0.25",
        "--i0", "5", "--max-jumps", "50", "--seed", "3",
    ]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_replicates_concatenated(tmp_path):
    out = tmp_path / "batch.csv"
    code = run([
        "simulate", "--model", "sir", "--N", "200", "--beta", "0.5", "--gamma", "0.25",
        "--i0", "3", "--max-jumps", "20", "--replicates", "3", "--seed", "1",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("replicate,")
    assert len(lines) == 1 + 3 * 20


def test_simulate_split_files(tmp_path):
    out = tmp_path / "runs.csv"
    code = run([
        "simulate", "--model", "sir", "--N", "200", "--beta", "0.5", "--gamma", "0.25",
        "--i0", "3", "--max-jumps", "10", "--replicates", "2", "--seed", "1",
        "--split-files", "--out", str(out),
    ])
    assert code == 0
    assert (tmp_path / "runs.rep0.csv").exists()
    assert (tmp_path / "runs.rep1.csv").exists()


def test_fluid_outputs_csv_and_markers(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run([
        "fluid", "--model", "sir", "--N", "1000000", "--beta", "0.5", "--gamma", "0.25",
        "--i0", "1", "--out", str(out),
    ])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "t,s,i,r,c"
    markers = json.loads((tmp_path / "traj.csv.markers.json").read_text())
    assert markers["t_cr"] is not None
    assert markers["t_cr_lower"] <= markers["t_cr"]
    assert markers["t_star_rate"] <= markers["t_star_upper"]


def test_fisher_prints_summary(tmp_path, capsys):
    code = run(["fisher", "--model", "bass", "--N", "1000", "--i0", "1", "--max-jumps", "100"])
    assert code == 0
    out = capsys.readouterr().out
    assert "J_total" in out
    assert "cr_floor" in out
    assert "J*N^4/m^3" in out


def test_fisher_sir_zero_horizon_is_an_empty_report(tmp_path, capsys):
    out = tmp_path / "fisher.json"
    code = run([
        "fisher", "--model", "sir", "--N", "1000", "--beta", "0.5", "--gamma", "0.25",
        "--i0", "5", "-m", "0", "--replicates", "200", "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "J_total      0.0000000000e+00"
    obj = json.loads(out.read_text())
    assert obj["m"] == 0 and obj["per_k"] == [] and obj["survival"] == [] and obj["total"] == 0.0


@pytest.mark.parametrize("model", ["sir", "bass"])
def test_fisher_negative_horizon_is_a_validation_error(model, capsys):
    code = run([
        "fisher", "--model", model, "--N", "1000", "--beta", "0.5", "--gamma", "0.25",
        "--i0", "5", "-m", "-1", "--replicates", "200",
    ])
    assert code == 1
    assert capsys.readouterr().err == "difflim: error[validation]: m must be non-negative\n"


def test_fisher_report_json(tmp_path):
    out = tmp_path / "fisher.json"
    code = run([
        "fisher", "--model", "sir", "--N", "500", "--beta", "0.5", "--gamma", "0.25",
        "--i0", "10", "--max-jumps", "30", "--replicates", "500", "--seed", "2",
        "--out", str(out),
    ])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["regime"] == "sir"
    assert len(obj["per_k"]) == 30
    assert obj["mc_replicates"] == 500
    meta = json.loads((tmp_path / "fisher.json.meta.json").read_text())
    assert isinstance(meta["wall_time_s"], float)
    assert isinstance(meta["peak_rss_mb"], float) and meta["peak_rss_mb"] > 0
    assert meta["path_steps"] == 30 * 500
    assert meta["chunks"] == 1
    assert meta["rng_streams"] == [[2, 0]]
    assert "path_steps" not in obj and "rng_streams" not in obj


def test_estimate_round_trip(tmp_path):
    ledger = tmp_path / "ledger.csv"
    run([
        "simulate", "--model", "sir", "--N", "100000", "--beta", "0.5", "--gamma", "0.25",
        "--i0", "82", "--max-jumps", "1000", "--seed", "5", "--out", str(ledger),
    ])
    report = tmp_path / "report.json"
    code = run([
        "estimate", "--model", "sir", "--input", str(ledger), "--delta", "0.18",
        "--N", "100000", "--out", str(report),
    ])
    assert code == 0
    obj = json.loads(report.read_text())
    assert 0.3 < obj["point"]["beta_hat"] < 0.7
    assert obj["intervals"]["beta"][0] <= obj["point"]["beta_hat"] <= obj["intervals"]["beta"][1]


def test_estimate_bass_round_trip(tmp_path):
    ledger = tmp_path / "bass.csv"
    run([
        "simulate", "--model", "bass", "--N", "1000000", "--beta", "0.5", "--p", "0.000001",
        "--i0", "1", "--max-jumps", "400", "--seed", "5", "--out", str(ledger),
    ])
    code = run(["estimate", "--model", "bass", "--input", str(ledger), "--n-max", "1000000"])
    assert code == 0


def test_peak_grid_csv(tmp_path):
    out = tmp_path / "peak.csv"
    code = run(["peak", "--N", "10000", "1000000", "--beta", "0.5", "--alpha", "1.0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,p,k_cr,k_star,time_ratio"
    assert len(lines) == 3


def test_peak_with_fewer_than_one_unit_of_imitation_headroom(capsys):
    """With (1 - p/beta) N < 1 the holding times increase from the first
    jump on, so k_star is 2 and the time ratio has one term below it."""
    assert run(["peak", "--N", "10", "--beta", "0.5", "--p", "0.45"]) == 0
    [header, row] = capsys.readouterr().out.splitlines()
    assert header == "N,p,k_cr,k_star,time_ratio"
    assert row.startswith("10.0,0.45,5,2,")


def test_peak_requires_exactly_one_innovation_spec(capsys):
    assert run(["peak", "--N", "100", "--beta", "0.5"]) == 1
    assert run(["peak", "--N", "100", "--beta", "0.5", "--p", "0.1", "--alpha", "1.0"]) == 1


@pytest.mark.parametrize(
    "argv, lines",
    [
        (["--N", "10000", "1000000", "100000000", "--beta", "0.5", "--alpha", "1.0"],
         ["10000.0,5e-05,465,5000,0.65636841",
          "1000000.0,5e-07,10000,500000,0.65689805",
          "100000000.0,5e-09,215444,50000000,0.65893929"]),
        (["--N", "10", "100", "12345.5", "1e6", "--beta", "0.5", "--p", "0.01"],
         ["10.0,0.01,5,6,0.85869999",
          "100.0,0.01,22,50,0.66847654",
          "12345.5,0.01,535,6050,0.30543862",
          "1000000.0,0.01,10000,490001,0.10620471"]),
        (["--N", "1.5", "3", "--beta", "0.7", "--p", "0.2"],
         ["1.5,0.2,2,2,1.00000000", "3.0,0.2,3,2,2.30000000"]),
    ],
    ids=["readme-alpha-grid", "p-grid", "smallest-populations"],
)
def test_peak_grid_output_is_exact(capsys, argv, lines):
    assert run(["peak", *argv]) == 0
    assert capsys.readouterr().out.splitlines() == ["N,p,k_cr,k_star,time_ratio", *lines]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, needle",
    [
        (["peak", "--N", "-5", "--p", "0.1"], "--N must be a finite number above 1, got -5.0"),
        (["peak", "--N", "0", "--alpha", "1"], "--N must be a finite number above 1, got 0.0"),
        (["peak", "--N", "inf", "--alpha", "1"], "--N must be a finite number above 1, got inf"),
        (["peak", "--N", "1", "--p", "0.1"], "--N must be a finite number above 1, got 1.0"),
        (["peak", "--N", "100", "--beta", "nan", "--alpha", "1"], "a finite beta"),
        (["peak", "--N", "1e4", "--p", "-0.1"], "p >= 0"),
        (["fluid", "--model", "bass", "--N", "100", "--i0", "5", "--r0", "200", "--p", "0.01",
          "--out", "traj.csv"], "i0 + r0 exceeds the population"),
        (["fluid", "--model", "sir", "--N", "100", "--i0", "5", "--r0", "-1", "--gamma", "0.1",
          "--out", "traj.csv"], "i0 and r0 must be >= 0"),
        (["fluid", "--model", "sir", "--N", "100", "--i0", "100", "--gamma", "0.1", "--out", "traj.csv"],
         "hypothesis failed: requires c0 < n^(2/3)"),
        (["--log-level", "NOPE", "peak", "--N", "100", "--p", "0.1"], "invalid choice: 'NOPE'"),
    ],
    ids=[
        "peak-negative-N", "peak-zero-N", "peak-infinite-N", "peak-unit-N", "peak-nan-beta",
        "peak-negative-p", "fluid-more-initial-than-N", "fluid-negative-r0", "fluid-sir-c0-past-n23",
        "unknown-log-level",
    ],
)
def test_bad_peak_fluid_and_log_level_values_are_validation_errors(tmp_path, monkeypatch, capsys, argv, needle):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "difflim: error[validation]: " in captured.err and needle in captured.err
    assert not (tmp_path / "traj.csv").exists()


def test_log_level_is_case_insensitive(capsys):
    assert run(["--log-level", "info", "peak", "--N", "100", "--p", "0.1"]) == 0
    assert capsys.readouterr().out.startswith("N,p,k_cr,k_star,time_ratio")


def _counts_csv(path):
    from difflim.core import ModelParams, Regime, RngStream
    from difflim.discrete import simulate_discrete, write_counts_csv

    params = ModelParams(n=10_000, beta=0.5, gamma=0.25, regime=Regime.SIR)
    series = simulate_discrete(params, 10, 0, 60, RngStream(seed=1), instance_id="r1")
    write_counts_csv([series], path)
    return path


def test_fit_and_peaks_round_trip(tmp_path):
    counts = _counts_csv(tmp_path / "counts.csv")

    fit_out = tmp_path / "fit.json"
    code = run([
        "fit", "--input", str(counts), "--gamma", "0.25", "--n-max", "1000000",
        "--starts", "8", "--seed", "0", "--fix-a", "--out", str(fit_out),
    ])
    assert code == 0
    obj = json.loads(fit_out.read_text())
    assert abs(obj["n_hat"] - 10_000) / 10_000 < 0.2

    code = run(["peaks", "--input", str(counts), "--gamma1", "0.5", "--t", "60"])
    assert code == 0


def test_fit_sidecar_counts_profile_evaluations(tmp_path):
    counts = _counts_csv(tmp_path / "counts.csv")
    fit_out = tmp_path / "fit.json"
    assert run([
        "fit", "--input", str(counts), "--gamma", "0.25", "--n-max", "1000000", "--out", str(fit_out),
    ]) == 0
    obj = json.loads(fit_out.read_text())
    assert set(obj) == {
        "a_hat", "beta_hat", "n_hat", "loglik", "converged", "bounds", "recoveries_imputed", "trace",
    }
    assert obj["converged"] is True
    assert all(set(t) == {"n", "a", "beta", "loglik"} for t in obj["trace"])
    meta = json.loads((tmp_path / "fit.json.meta.json").read_text())
    assert isinstance(meta["wall_time_s"], float)
    assert meta["loglik_evals"] > len(obj["trace"])


def test_fit_with_infeasible_counts_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "counts.csv"
    path.write_text("instance_id,t,delta_c,delta_r\nq,0,1,0\nq,1,0,1\nq,2,2,0\n")
    assert run(["fit", "--input", str(path), "--gamma", "0.25", "--n-max", "100", "--fix-a"]) == 2
    err = capsys.readouterr().err
    assert "difflim: error[data]:" in err and str(path) in err
    assert "Traceback" not in err
    assert run(["fit", "--input", str(path), "--gamma", "0.25", "--n-max", "100"]) == 0


def test_overflowing_rate_is_a_validation_error(tmp_path, capsys):
    code = run([
        "simulate", "--model", "sir", "--N", "200", "--beta", "5e305", "--gamma", "0.5",
        "--i0", "5", "--max-jumps", "20", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "difflim: error[validation]:" in err and "overflow" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_study_subcommand(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "study": "TimeRatio",
        "grid": {"alphas": [1.0], "ns": [1e4, 1e6]},
        "seed": 0,
    }))
    out_dir = tmp_path / "out"
    code = run(["study", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "timeratio.csv").exists()
    assert (out_dir / "timeratio.json").exists()
    assert (out_dir / "timeratio.meta.json").exists()


_TIME_RATIO = {"alphas": [1.0], "ns": [1e4]}
_REL_ERROR = {"n": 1e4, "ms": [100]}


@pytest.mark.parametrize(
    "command, config, needle",
    [
        ("simulate", [1, 2], "bad config file: "),
        ("study", [1, 2], "a study config is a JSON object, got list"),
        ("study", {"grid": _TIME_RATIO}, "'study' must be a study name string"),
        ("study", {"study": "TimeRatio", "grid": [1e4]}, "'grid' must be a JSON object"),
        ("study", {"study": "TimeRatio", "grid": {"ns": [1e4, 1e6]}}, "TimeRatio grid needs 'alphas'"),
        ("study", {"study": "RelErrorScaling", "grid": _REL_ERROR, "replicates": "x"},
         "'replicates' must be an integer, got 'x'"),
        ("study", {"study": "RelErrorScaling", "grid": _REL_ERROR, "replicates": 2.5},
         "'replicates' must be an integer, got 2.5"),
        ("study", {"study": "TimeRatio", "grid": _TIME_RATIO, "seed": True}, "'seed' must be an integer, got True"),
        ("study", {"study": "FluidSandwich", "grid": {"ns": ["x"]}}, "FluidSandwich grid 'ns' must be"),
        ("study", {"study": "TimeRatio", "grid": {"alphas": [1.0], "ns": [0]}}, "TimeRatio grid 'ns' must be"),
        ("study", {"study": "Dominance", "grid": {"points": [{"n": 1e4}]}}, "Dominance grid 'points' must be"),
        ("study", "{'study': 'TimeRatio'}", "config.json: not a JSON study config"),
        ("study", {"study": "Dominance", "grid": {"points": [{"n": 1e4, "m": 100, "beta": "x"}]}},
         "Dominance point 0 'beta' must be a finite number >= 0, got 'x'"),
        ("study", {"study": "Dominance", "grid": {"points": [{"n": 1e4, "m": 100, "r0": -5}]}},
         "Dominance point 0 'r0' must be an integer >= 0, got -5"),
        ("study", {"study": "Coverage", "grid": {"n": 1e5, "m": 300, "r0": -5}, "replicates": 200},
         "Coverage grid 'r0' must be an integer >= 0, got -5"),
        ("study", {"study": "Dominance", "grid": {"points": [{"n": 1e4, "m": 100, "i0": 2.5}]}},
         "Dominance point 0 'i0' must be an integer >= 1, got 2.5"),
        ("study", {"study": "FisherScaling", "grid": {"regime": "sir", "ns": [1e3], "i0": 2.5}, "replicates": 200},
         "FisherScaling grid 'i0' must be an integer >= 1, got 2.5"),
    ],
    ids=[
        "simulate-list", "study-list", "study-no-study", "study-list-grid", "time-ratio-no-alphas",
        "replicates-string", "replicates-float", "seed-bool", "ns-string", "ns-zero", "point-without-m",
        "study-not-json", "point-beta-string", "point-r0-negative", "coverage-r0-negative",
        "point-i0-float", "fisher-scaling-i0-float",
    ],
)
def test_config_of_the_wrong_shape_is_a_validation_error(tmp_path, capsys, command, config, needle):
    """The config is refused before --out is made."""
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    assert run([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("difflim: error[validation]: ") and needle in err
    assert not (tmp_path / "out").exists()


def test_study_without_its_config_file_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["study", "--config", str(tmp_path / "missing.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("difflim: error[validation]: bad config file: ") and "missing.json" in err
    assert not out.exists()


def test_config_file_provides_flags(tmp_path):
    cfg = tmp_path / "flags.json"
    cfg.write_text(json.dumps({
        "model": "bass", "N": 1000, "beta": 0.5, "p": 0.001, "i0": 1,
        "max-jumps": 20, "seed": 7,
    }))
    out = tmp_path / "led.csv"
    code = run(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 21
    # explicit flag wins over the config value
    out2 = tmp_path / "led2.csv"
    code = run(["simulate", "--config", str(cfg), "--max-jumps", "5", "--out", str(out2)])
    assert code == 0
    assert len(out2.read_text().splitlines()) == 6


def test_simulate_threads_flag_is_accepted_and_ignored(tmp_path):
    """Replicates run serially: --threads 1, --threads 2 and no --threads
    write the same batch file."""
    written = []
    for threads in (["--threads", "1"], ["--threads", "2"], []):
        out = tmp_path / f"batch{len(written)}.csv"
        code = run([
            "simulate", "--model", "sir", "--N", "1000", "--beta", "0.5", "--gamma", "0.25",
            "--i0", "5", "--max-jumps", "50", "--replicates", "8", "--seed", "1", *threads,
            "--out", str(out),
        ])
        assert code == 0
        written.append(out.read_bytes())
    assert written[0] == written[1] == written[2]
    assert len(written[0].splitlines()) == 1 + 8 * 50


def test_help_lists_flags(capsys):
    assert dispatch(["simulate", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--model", "--N", "--beta", "--gamma", "--p", "--i0", "--r0",
                 "--max-jumps", "--replicates", "--seed", "--threads", "--out"):
        assert flag in out


def _env():
    """This process's environment with difflim's source tree on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def _dispatch_in_fresh_interpreter(argvs, cwd, block_scipy=False):
    """Run ``dispatch`` on each argv in one new interpreter; return the exit
    codes and the scipy modules loaded after import and after each command.
    With ``block_scipy`` every import of scipy in that interpreter fails."""
    script = (
        "import json, sys\n"
        + ("sys.modules['scipy'] = None\n" if block_scipy else "")
        + "from difflim.cli import dispatch\n"
        "def scipy_mods():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "report = [('import', 0, scipy_mods())]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    report.append((argv[0], dispatch(argv), scipy_mods()))\n"
        "print(json.dumps(report))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        cwd=cwd, env=_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_without_fits_or_ode_never_import_scipy(tmp_path):
    counts = _counts_csv(tmp_path / "counts.csv")
    argvs = [
        ["--version"],
        ["simulate", "--model", "sir", "--N", "1000", "--beta", "0.5", "--gamma", "0.25",
         "--i0", "10", "--max-jumps", "100", "--seed", "1", "--out", "ledger.csv"],
        ["fisher", "--model", "bass", "--N", "10000", "--i0", "1", "-m", "464"],
        ["estimate", "--model", "sir", "--input", "ledger.csv", "--out", "est.json"],
        ["peaks", "--input", str(counts), "--gamma1", "0.5", "--t", "60"],
    ]
    for name, code, scipy_mods in _dispatch_in_fresh_interpreter(argvs, tmp_path):
        assert code == 0, name
        assert scipy_mods == [], name


_SIM = ["difflim.core", "difflim.simulate"]
_FISHER = [*_SIM, "difflim.fisher"]
_ESTIMATE = [*_FISHER, "difflim.estimate"]
_FLUID = ["difflim.core", "difflim._dop853", "difflim.fluid"]
_DISCRETE = ["difflim.core", "difflim.discrete"]


@pytest.mark.parametrize(
    "argv, code, modules",
    [
        (["--version"], 0, []),
        (["--help"], 0, []),
        (["simulate", "--model", "bass"], 1, []),
        (["simulate", "--model", "sir", "--N", "1000", "--beta", "0.5", "--gamma", "0.25", "--i0", "10",
          "--max-jumps", "50", "--replicates", "2", "--out", "batch.csv"], 0, _SIM),
        (["fluid", "--model", "sir", "--N", "10000", "--beta", "0.5", "--gamma", "0.25", "--i0", "1",
          "--out", "traj.csv"], 0, _FLUID),
        (["fisher", "--model", "bass", "--N", "10000", "--i0", "1", "-m", "464"], 0, _FISHER),
        (["estimate", "--model", "sir", "--input", "ledger.csv", "--out", "est.json"], 0, _ESTIMATE),
        (["peak", "--N", "10000", "--beta", "0.5", "--alpha", "1.0"], 0, _ESTIMATE),
        (["fit", "--input", "counts.csv", "--gamma", "0.25", "--n-max", "1000000", "--fix-a"], 0, _DISCRETE),
        (["peaks", "--input", "counts.csv", "--gamma1", "0.5", "--t", "60"], 0, _DISCRETE),
        (["study", "--config", "timeratio.json", "--out", "results"], 0,
         [*_ESTIMATE, "difflim._dop853", "difflim.fluid", "difflim.experiments"]),
    ],
    ids=["version", "help", "usage-error", "simulate", "fluid", "fisher", "estimate", "peak", "fit", "peaks",
         "study"],
)
def test_each_command_imports_only_what_it_runs(tmp_path, argv, code, modules):
    """Run through the `difflim` entry point in a new interpreter, each
    command leaves exactly the difflim modules it runs in sys.modules, and
    numpy only together with them: --version, --help and a usage error load
    no numpy.  Replicates are simulated serially, so no command loads
    multiprocessing or the process-pool executor."""
    _ledger_csv(tmp_path / "ledger.csv")
    _counts_csv(tmp_path / "counts.csv")
    (tmp_path / "timeratio.json").write_text(json.dumps({"study": "TimeRatio", "grid": _TIME_RATIO}))
    script = (
        "import json, sys\n"
        "from difflim.cli import main\n"
        "try:\n"
        "    main()\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] in\n"
        "    ('difflim', 'numpy', 'multiprocessing') or m == 'concurrent.futures.process')]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=60,
    )
    got_code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert got_code == code, proc.stderr
    assert [m for m in loaded if m.startswith("difflim")] == sorted(["difflim", "difflim.cli", *modules])
    assert ("numpy" in loaded) == bool(modules)
    assert not [m for m in loaded if m.split(".")[0] == "multiprocessing" or m == "concurrent.futures.process"]


def test_package_names_load_on_first_use():
    """`from difflim import <name>` works for every name in __all__, each is
    the core object, and any other attribute is an AttributeError."""
    from difflim import core

    for name in difflim.__all__:
        namespace = {}
        exec(f"from difflim import {name}", namespace)
        assert namespace[name] is getattr(difflim if name == "__version__" else core, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        difflim.no_such_name


def _scipy_modules_after(code, cwd):
    """scipy modules loaded by running ``code`` in a new interpreter."""
    script = code + "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + script],
        cwd=cwd, env=_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_fit_fluid_and_fluid_sandwich_load_no_scipy(tmp_path):
    counts = _counts_csv(tmp_path / "counts.csv")
    (tmp_path / "fluid.json").write_text(json.dumps(
        {"study": "FluidSandwich", "grid": {"ns": [1e4, 1e6]}, "replicates": 1, "seed": 0}
    ))
    argvs = [
        ["fit", "--input", str(counts), "--gamma", "0.25", "--n-max", "1000000", "--fix-a",
         "--out", "fit.json"],
        ["fit", "--input", str(counts), "--gamma", "0.25", "--n-max", "1000000", "--out", "fit_a.json"],
        ["fluid", "--model", "sir", "--N", "10000", "--beta", "0.5", "--gamma", "0.25",
         "--i0", "1", "--out", "traj.csv"],
        ["fluid", "--model", "bass", "--N", "10000", "--beta", "0.5", "--p", "0.01",
         "--i0", "1", "--out", "bass.csv"],
        ["study", "--config", "fluid.json", "--out", "results"],
    ]
    for name, code, scipy_mods in _dispatch_in_fresh_interpreter(argvs, tmp_path):
        assert code == 0, name
        assert scipy_mods == [], name
    assert json.loads((tmp_path / "fit.json").read_text())["n_hat"] > 0
    # The CLI has no flag for the general regime (p > 0 and gamma > 0).
    general = (
        "from difflim.core import ModelParams, Regime\n"
        "from difflim.fluid import integrate, peak_times\n"
        "params = ModelParams(n=5000, beta=0.7, gamma=0.2, p=0.01, regime=Regime.GENERAL)\n"
        "peak_times(integrate(params, 4990, 8, 2))\n"
    )
    assert _scipy_modules_after(general, tmp_path) == []


def test_studies_fit_and_fluid_run_without_scipy(tmp_path):
    """With scipy unimportable, study RelErrorScaling and FluidSandwich, fit
    with and without --fix-a, and fluid exit 0 and write the same bytes as
    in an interpreter where scipy can be imported."""
    counts = _counts_csv(tmp_path / "counts.csv")
    studies = {
        "rel.json": {"study": "RelErrorScaling", "grid": {"n": 1e4, "ms": [465, 930]},
                     "replicates": 60, "seed": 9},
        "fluid.json": {"study": "FluidSandwich", "grid": {"ns": [1e4, 1e6]}, "replicates": 1, "seed": 0},
    }
    argvs = [
        ["study", "--config", "rel.json", "--out", "results"],
        ["study", "--config", "fluid.json", "--out", "results"],
        ["fit", "--input", str(counts), "--gamma", "0.25", "--n-max", "1000000", "--fix-a",
         "--out", "fit.json"],
        ["fit", "--input", str(counts), "--gamma", "0.25", "--n-max", "1000000", "--out", "fit_a.json"],
        ["fluid", "--model", "sir", "--N", "1000000", "--beta", "0.5", "--gamma", "0.25",
         "--i0", "1", "--out", "traj.csv"],
    ]
    written = {}
    for block_scipy in (False, True):
        work = tmp_path / f"block_scipy_{block_scipy}"
        work.mkdir()
        for name, cfg in studies.items():
            (work / name).write_text(json.dumps(cfg))
        report = _dispatch_in_fresh_interpreter(argvs, work, block_scipy=block_scipy)
        assert [code for _, code, _ in report[1:]] == [0] * len(argvs)
        written[block_scipy] = {
            str(p.relative_to(work)): p.read_bytes()
            for p in sorted(work.rglob("*")) if p.is_file() and not p.name.endswith(".meta.json")
        }
    expected = {"results/relerrorscaling.csv", "results/fluidsandwich.csv", "fit.json", "fit_a.json", "traj.csv"}
    assert expected <= set(written[True])
    assert written[True] == written[False]


@pytest.mark.parametrize(
    "flags, code, kind",
    [
        (["--t-max", "nan"], 1, "validation"),
        (["--t-max", "inf"], 1, "validation"),
        (["--tol", "nan"], 1, "validation"),
        (["--tol", "inf"], 1, "validation"),
        # past the epidemic the stability limit caps the step: the step budget ends it
        (["--t-max", "1e300"], 2, "runtime"),
        # the step shrinks below ten ulps of t at once
        (["--tol", "1e-300"], 2, "runtime"),
    ],
    ids=["t-max-nan", "t-max-inf", "tol-nan", "tol-inf", "t-max-1e300", "tol-1e-300"],
)
def test_fluid_refuses_unusable_horizons_and_tolerances(tmp_path, flags, code, kind):
    proc = subprocess.run(
        [sys.executable, "-m", "difflim.cli", "fluid", "--model", "sir", "--N", "1000000",
         "--beta", "0.5", "--gamma", "0.25", "--i0", "1", *flags, "--out", "traj.csv"],
        cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"difflim: error[{kind}]: ")
    assert not (tmp_path / "traj.csv").exists()


def test_fisher_sir_past_full_population_writes_nothing_to_stderr(tmp_path):
    """With gamma = 0 the count path fills the population before m; the
    per-jump bracket at c = n is masked without a numpy warning."""
    proc = subprocess.run(
        [sys.executable, "-m", "difflim.cli", "fisher", "--model", "sir", "--N", "30", "--beta", "0.5",
         "--gamma", "0", "--i0", "3", "-m", "40", "--replicates", "200"],
        cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("J_total")


def test_fisher_sir_horizon_past_population_is_a_validation_error(tmp_path):
    """With gamma > 0 a horizon that lets a live path reach C = n is refused
    with exit 1, not answered with an infinite total and a numpy warning."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "difflim.cli", "fisher", "--model", "sir",
         "--N", "30", "--beta", "0.5", "--gamma", "0.25", "--i0", "2", "-m", "60", "--replicates", "300"],
        cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == "difflim: error[validation]: observation horizon exceeds population\n"
    assert proc.stdout == ""


def _ledger_csv(path):
    assert run([
        "simulate", "--model", "sir", "--N", "500", "--beta", "0.5", "--gamma", "0.25",
        "--i0", "5", "--max-jumps", "20", "--seed", "3", "--out", str(path),
    ]) == 0
    return path


def _batch_ledger_csv(path):
    assert run([
        "simulate", "--model", "sir", "--N", "1000", "--beta", "0.5", "--gamma", "0.25",
        "--i0", "5", "--max-jumps", "50", "--replicates", "3", "--seed", "3", "--out", str(path),
    ]) == 0
    return path


def _drop_line(path, line_no):
    lines = path.read_text().splitlines()
    del lines[line_no - 1]
    path.write_text("\n".join(lines) + "\n")


def _drop_column(path, column):
    lines = [line.split(",") for line in path.read_text().splitlines()]
    j = lines[0].index(column)
    path.write_text("\n".join(",".join(c for i, c in enumerate(row) if i != j) for row in lines) + "\n")


def _set_cell(path, line_no, column, value):
    lines = [line.split(",") for line in path.read_text().splitlines()]
    lines[line_no - 1][lines[0].index(column)] = value
    path.write_text("\n".join(",".join(row) for row in lines) + "\n")


def _set_bytes(path, line_no, column, value: bytes):
    lines = [line.split(b",") for line in path.read_bytes().splitlines()]
    lines[line_no - 1][lines[0].index(column.encode())] = value
    path.write_bytes(b"\n".join(b",".join(row) for row in lines) + b"\n")


def _repeat_column(path, column):
    lines = [line.split(",") for line in path.read_text().splitlines()]
    j = lines[0].index(column)
    path.write_text("\n".join(",".join(row + [row[j]]) for row in lines) + "\n")


def _truncate_line(path, line_no, cells):
    lines = path.read_text().splitlines()
    lines[line_no - 1] = ",".join(lines[line_no - 1].split(",")[:cells])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "make, edit, command, needle",
    [
        (_counts_csv, lambda p: _drop_column(p, "delta_c"),
         ["fit", "--gamma", "0.25", "--n-max", "1e6"], "missing column 'delta_c'"),
        (_counts_csv, lambda p: _drop_column(p, "delta_c"),
         ["peaks", "--gamma1", "0.5", "--t", "60"], "missing column 'delta_c'"),
        (_counts_csv, lambda p: _set_cell(p, 5, "delta_c", "2.5"),
         ["peaks", "--gamma1", "0.5", "--t", "60"], "line 5, column 'delta_c'"),
        (_ledger_csv, lambda p: _drop_column(p, "S"),
         ["estimate", "--model", "sir"], "missing column 'S'"),
        (_ledger_csv, lambda p: _set_cell(p, 3, "I", "x"),
         ["estimate", "--model", "sir"], "line 3, column 'I'"),
        (_ledger_csv, lambda p: _set_cell(p, 5, "S", "-1"),
         ["estimate", "--model", "sir"], "line 5: negative compartment"),
        (_counts_csv, lambda p: _drop_line(p, 5),
         ["fit", "--gamma", "0.25", "--n-max", "1e6"], "line 5, instance r1: epoch t=4"),
        (_batch_ledger_csv, lambda p: None,
         ["estimate", "--model", "sir"], "'replicate' column"),
        (_ledger_csv, lambda p: _set_bytes(p, 4, "t", b"0.1\xff"),
         ["estimate", "--model", "sir"], "line 4: bytes that are not UTF-8"),
        (_counts_csv, lambda p: _set_bytes(p, 6, "delta_c", b"\xfe"),
         ["fit", "--gamma", "0.25", "--n-max", "1e6"], "line 6: bytes that are not UTF-8"),
        (_counts_csv, lambda p: _set_bytes(p, 2, "instance_id", b"r\xc3"),
         ["peaks", "--gamma1", "0.5", "--t", "60"], "line 2: bytes that are not UTF-8"),
        (_counts_csv, lambda p: _set_cell(p, 7, "delta_c", "99999999999999999999999"),
         ["fit", "--gamma", "0.25", "--n-max", "1e6"], "line 7, column 'delta_c': '99999999999999999999999' is outside int64"),
        (_ledger_csv, lambda p: _set_cell(p, 3, "S", "99999999999999999999999"),
         ["estimate", "--model", "sir"], "line 3, column 'S'"),
        (_counts_csv, lambda p: _set_cell(p, 5, "delta_c", "-3"),
         ["fit", "--gamma", "0.25", "--n-max", "1e6"], "line 5: negative count"),
        (_counts_csv, lambda p: _truncate_line(p, 4, 3),
         ["fit", "--gamma", "0.25", "--n-max", "1e6"], "line 4: 3 cells where the header has 4"),
        (_ledger_csv, lambda p: _set_cell(p, 6, "C", "9,9"),
         ["estimate", "--model", "sir"], "line 6: 9 cells where the header has 8"),
        (_counts_csv, lambda p: _repeat_column(p, "delta_c"),
         ["fit", "--gamma", "0.25", "--n-max", "1e6"], "repeats a column name"),
    ],
    ids=[
        "fit-no-delta_c", "peaks-no-delta_c", "peaks-float-cell", "estimate-no-S", "estimate-bad-cell",
        "estimate-negative-S", "fit-epoch-gap", "estimate-batch-ledger",
        "estimate-not-utf8", "fit-not-utf8", "peaks-not-utf8", "fit-beyond-int64", "estimate-beyond-int64",
        "fit-negative-delta_c", "fit-short-row", "estimate-long-row", "fit-repeated-column",
    ],
)
def test_malformed_csv_is_a_data_error(tmp_path, capsys, make, edit, command, needle):
    path = make(tmp_path / "input.csv")
    edit(path)
    capsys.readouterr()
    assert run(command + ["--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "difflim: error[data]:" in err
    assert needle in err and str(path) in err
    assert "Traceback" not in err
