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


def test_peak_requires_exactly_one_innovation_spec(capsys):
    assert run(["peak", "--N", "100", "--beta", "0.5"]) == 1
    assert run(["peak", "--N", "100", "--beta", "0.5", "--p", "0.1", "--alpha", "1.0"]) == 1


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


def test_threads_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("DIFFLIM_THREADS", "2")
    out = tmp_path / "x.csv"
    code = run([
        "simulate", "--model", "sir", "--N", "100", "--beta", "0.5", "--gamma", "0.25",
        "--i0", "2", "--max-jumps", "5", "--replicates", "2", "--seed", "0",
        "--out", str(out),
    ])
    assert code == 0


def test_help_lists_flags(capsys):
    assert dispatch(["simulate", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--model", "--N", "--beta", "--gamma", "--p", "--i0", "--r0",
                 "--max-jumps", "--replicates", "--seed", "--threads", "--out"):
        assert flag in out


def _dispatch_in_fresh_interpreter(argvs, cwd):
    """Run ``dispatch`` on each argv in one new interpreter; return the exit
    codes and the scipy modules loaded after import and after each command."""
    script = (
        "import json, sys\n"
        "from difflim.cli import dispatch\n"
        "def scipy_mods():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "report = [('import', 0, scipy_mods())]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    report.append((argv[0], dispatch(argv), scipy_mods()))\n"
        "print(json.dumps(report))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
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


def test_fluid_and_fit_import_scipy_where_used(tmp_path):
    counts = _counts_csv(tmp_path / "counts.csv")
    argvs = [
        ["fluid", "--model", "sir", "--N", "10000", "--beta", "0.5", "--gamma", "0.25",
         "--i0", "1", "--out", "traj.csv"],
        ["fit", "--input", str(counts), "--gamma", "0.25", "--n-max", "1000000",
         "--starts", "4", "--fix-a", "--out", "fit.json"],
    ]
    report = _dispatch_in_fresh_interpreter(argvs, tmp_path)
    assert report[0][2] == []
    for name, code, scipy_mods in report[1:]:
        assert code == 0, name
        assert scipy_mods, name
    assert json.loads((tmp_path / "fit.json").read_text())["n_hat"] > 0


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
    ],
    ids=[
        "fit-no-delta_c", "peaks-no-delta_c", "peaks-float-cell", "estimate-no-S", "estimate-bad-cell",
        "estimate-negative-S", "fit-epoch-gap", "estimate-batch-ledger",
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
