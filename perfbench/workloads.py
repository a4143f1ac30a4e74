"""The three benchmark workloads.

A workload is a function ``(ctx, rnd) -> Round``.  It generates round
``rnd``'s inputs from ``(ctx.seed, rnd)`` -- the library sees only those
inputs -- and returns the round's operations in a fixed order.  Each
operation has a ``run`` (timed) and a ``check`` (untimed, run after the
whole round) that returns a list of failure messages.

Library functions are always looked up through their module at call
time (``experiments.run_study``), so the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Ctx:
    seed: int
    tiny: bool
    workdir: Path
    in_process: bool = False  # cli-roundtrip: call cli.dispatch instead of spawning
    info: dict = field(default_factory=dict)


@dataclass
class Op:
    slot: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Round:
    ops: list
    work: float  # work units requested by one full round (see WORK_UNITS)


WORK_UNITS = {
    "mc-information": ("path_steps_per_s", "path steps (m*R summed over simulated path blocks)"),
    "mle-fits": ("fits_per_s", "fit_mle calls + mle_population_bass replicates"),
    "cli-roundtrip": ("cmds_per_s", "difflim commands"),
}


def round_seed(seed: int, rnd: int) -> int:
    return seed * 1000 + rnd


# ---------------------------------------------------------------------------
# mc-information: simulate_paths and fisher do nearly all the work.
# ---------------------------------------------------------------------------

MC_SIZES = {
    False: dict(fs_ns=[1e3, 1e4, 1e5], fs_reps=2000, oracle=(10_000, 464, 20_000),
                dom_points=[{"n": 10_000, "m": 1_000, "i0": 1},
                            {"n": 20_000, "m": 2_000, "i0": 4, "beta": 0.6, "gamma": 0.2}],
                dom_reps=2_500, cov_reps=1_000),
    True: dict(fs_ns=[1e3], fs_reps=200, oracle=(200, 30, 20_000),
               dom_points=[{"n": 10_000, "m": 1_000, "i0": 1}], dom_reps=500, cov_reps=200),
}
SIR_I0 = 82  # the survival-threshold start of the acceptance suite


def mc_information(ctx: Ctx, rnd: int) -> Round:
    from difflim import experiments, fisher
    from difflim.core import ModelParams, Regime, RngStream

    sz = MC_SIZES[ctx.tiny]
    seed = round_seed(ctx.seed, rnd)
    shared: dict = {}

    fs_cfg = experiments.StudyConfig(
        "FisherScaling",
        {"regime": "sir", "ns": sz["fs_ns"], "i0": SIR_I0, "beta": 0.5, "gamma": 0.25},
        replicates=sz["fs_reps"], seed=seed,
    )

    def check_fs(res):
        # Criterion 2b's spread is recorded for information only, never checked.
        ctx.info.setdefault("fisher_scaling_ratio_spread", []).append(res.summary["ratio_spread"])
        shared["row_1e3"] = res.rows[0]
        return [
            f"FisherScaling n={r['n']:g}: stderr {r['stderr']:.4g} not < 10% of J {r['total']:.4g}"
            for r in res.rows if not r["stderr"] < 0.1 * r["total"]
        ]

    exact_params = ModelParams(n=1e3, beta=0.5, gamma=0.25, regime=Regime.SIR)

    def check_exact(rep):
        row = shared.get("row_1e3")
        if row is None:
            return ["fisher_sir_exact: no FisherScaling row at n=1e3 to compare with"]
        z = abs(row["total"] - rep.total) / row["stderr"]
        return [] if z <= 4.0 else [f"MC J at n=1e3 is {z:.2f} stderr from fisher_sir_exact"]

    on, om, oreps = sz["oracle"]
    oracle_params = ModelParams(n=on, beta=0.5, gamma=0.0, p=1.0 / on, regime=Regime.BASS)

    def run_oracle():
        j, _se = fisher.score_variance_oracle(oracle_params, 1, 0, om, oreps, RngStream(seed, 1))
        return j, fisher.fisher_bass(on, 1, om).total

    def check_oracle(out):
        j, exact = out
        rel = abs(j - exact) / exact
        return [] if rel < 0.05 else [f"oracle J off fisher_bass by {rel:.2%}"]

    dom_cfg = experiments.StudyConfig(
        "Dominance", {"points": sz["dom_points"]}, replicates=sz["dom_reps"], seed=seed
    )
    cov_cfg = experiments.StudyConfig(
        "Coverage", {"n": 1e5, "m": 300}, replicates=sz["cov_reps"], seed=seed
    )

    def check_rows(res):
        return [f"{res.study} row {r} failed" for r in res.rows if not r["pass"]]

    ops = [
        Op("fisher_scaling", lambda: experiments.run_study(fs_cfg), check_fs),
        Op("sir_exact", lambda: fisher.fisher_sir_exact(exact_params, SIR_I0, 0, 100), check_exact),
        Op("bass_oracle", run_oracle, check_oracle),
        Op("dominance", lambda: experiments.run_study(dom_cfg), check_rows),
        Op("coverage", lambda: experiments.run_study(cov_cfg), check_rows),
    ]
    steps = sum(math.ceil(n ** (2 / 3)) for n in sz["fs_ns"]) * sz["fs_reps"]
    steps += om * oreps + sum(p["m"] for p in sz["dom_points"]) * sz["dom_reps"] + 300 * sz["cov_reps"]
    return Round(ops, steps)


# ---------------------------------------------------------------------------
# mle-fits: the discrete-model fits and the population MLE do the work.
# ---------------------------------------------------------------------------

MLE_SIZES = {False: dict(series=2, rel_reps=200), True: dict(series=1, rel_reps=100)}
MLE_N, MLE_BETA, MLE_GAMMA = 10_000, 0.5, 0.25


def mle_fits(ctx: Ctx, rnd: int) -> Round:
    import numpy as np

    from difflim import discrete, experiments
    from difflim.core import ModelParams, Regime, RngStream

    sz = MLE_SIZES[ctx.tiny]
    seed = round_seed(ctx.seed, rnd)
    params = ModelParams(n=MLE_N, beta=MLE_BETA, gamma=MLE_GAMMA, regime=Regime.SIR)
    cfg = discrete.OptimizerConfig(starts=12, seed=0, fit_a=False)
    cutoff = math.ceil(MLE_N ** (2 / 3))

    series = []
    stream = 0
    while len(series) < sz["series"]:
        s = discrete.simulate_discrete(params, 10, 0, 60, RngStream(seed, stream), instance_id=str(stream))
        stream += 1
        if s.c_total >= MLE_N / 2:  # skip early extinctions, as criterion 11 does
            series.append(s)

    def truncated(s):
        t_cut = int(np.searchsorted(s.i_init + np.cumsum(s.delta_c), cutoff) + 1)
        return discrete.CountSeries(s.instance_id, s.i_init, s.r_init, s.delta_c[:t_cut], s.delta_r[:t_cut])

    def fit_op(slot, s):
        def check(fit):
            truth = discrete.loglik(s, 0.0, MLE_BETA, MLE_N, MLE_GAMMA)
            if fit.loglik >= truth - 1e-6:
                return []
            return [f"{slot}: loglik {fit.loglik:.6f} below the truth's {truth:.6f}"]

        return Op(slot, lambda: discrete.fit_mle(s, MLE_GAMMA, 1e6, cfg), check)

    ops = []
    for j, s in enumerate(series):
        ops.append(fit_op(f"fit_full_{j}", s))
        ops.append(fit_op(f"fit_truncated_{j}", truncated(s)))

    rel_cfg = experiments.StudyConfig(
        "RelErrorScaling", {"n": float(MLE_N), "ms": [cutoff, 4 * cutoff]},
        replicates=sz["rel_reps"], seed=seed,
    )
    ops.append(Op(
        "rel_error_scaling",
        lambda: experiments.run_study(rel_cfg),
        lambda res: [f"RelErrorScaling row m={r['m']} failed" for r in res.rows if not r["pass"]],
    ))
    return Round(ops, 2 * len(series) + 2 * sz["rel_reps"])


# ---------------------------------------------------------------------------
# cli-roundtrip: every README command, one process at a time.
# ---------------------------------------------------------------------------

CLI_SIZES = {
    False: dict(sir_jumps=1000, reps=8, fisher_m=2155, fisher_reps=2000, fluid_n=1e6,
                peak_ns=["10000", "1000000", "100000000"], tr_ns=[1e4, 1e6], fs_ns=[1e4, 1e5, 1e6]),
    True: dict(sir_jumps=100, reps=2, fisher_m=100, fisher_reps=200, fluid_n=1e4,
               peak_ns=["10000"], tr_ns=[1e4, 1e6], fs_ns=[1e4, 1e5]),
}
LEDGER_HEADER = "k,t,inter_arrival,kind,S,I,R,C"


def _first_line(path) -> str:
    with open(path) as fh:
        return fh.readline().rstrip("\r\n")


def _header(path, expected):
    got = _first_line(path)
    return [] if got == expected else [f"{Path(path).name}: header {got!r}, expected {expected!r}"]


def _json_keys(path, keys):
    with open(path) as fh:
        missing = set(keys) - set(json.load(fh))
    return [f"{Path(path).name}: missing keys {sorted(missing)}"] if missing else []


def _same_bytes(a, b):
    return [] if Path(a).read_bytes() == Path(b).read_bytes() else [f"{Path(a).name} != {Path(b).name}"]


def _fisher_stdout(out):
    labels = [line.split()[0] for line in out.splitlines() if line.strip()]
    floats = [float(line.split()[1]) for line in out.splitlines() if line.strip()]
    ok = labels == ["J_total", "cr_floor", "J*N^4/m^3"] and all(math.isfinite(x) for x in floats)
    return [] if ok else [f"fisher stdout unexpected: {out!r}"]


def cli_roundtrip(ctx: Ctx, rnd: int) -> Round:
    from difflim import discrete
    from difflim.core import ModelParams, Regime, RngStream

    sz = CLI_SIZES[ctx.tiny]
    seed = round_seed(ctx.seed, rnd)
    d = ctx.workdir / f"round{rnd}"
    (d / "results").mkdir(parents=True, exist_ok=True)

    def f(name: str) -> str:
        return str(d / name)

    params = ModelParams(n=MLE_N, beta=MLE_BETA, gamma=MLE_GAMMA, regime=Regime.SIR)
    series, stream = [], 0
    while len(series) < 3:
        s = discrete.simulate_discrete(params, 10, 0, 60, RngStream(seed, stream), instance_id=f"inst{stream}")
        stream += 1
        if s.c_total >= MLE_N / 2:
            series.append(s)
    discrete.write_counts_csv(series, f("counts.csv"))
    for name, study, grid in (
        ("timeratio.json", "TimeRatio", {"alphas": [1.0], "ns": sz["tr_ns"]}),
        ("fluid.json", "FluidSandwich", {"ns": sz["fs_ns"]}),
    ):
        Path(f(name)).write_text(json.dumps({"study": study, "grid": grid, "replicates": 1, "seed": seed}))

    sseed = str(seed)
    sir = ["--model", "sir", "--N", "100000", "--beta", "0.5", "--gamma", "0.25", "--i0", "82"]
    bass = ["simulate", "--model", "bass", "--N", "1000", "--beta", "0.5", "--p", "0.001", "--i0", "1",
            "--max-jumps", "100", "--seed", sseed, "--out"]
    batch = ["simulate", *sir, "--max-jumps", str(sz["sir_jumps"]), "--replicates", str(sz["reps"]),
             "--seed", sseed, "--out"]
    est_keys = ["regime", "m", "point", "intervals", "inputs", "diagnostics"]
    batch_header = "replicate," + LEDGER_HEADER

    cmds = [
        ("version", ["--version"],
         lambda o: [] if o.startswith("difflim ") else [f"--version printed {o!r}"]),
        ("simulate_bass", bass + [f("ledger_bass.csv")], lambda o: _header(f("ledger_bass.csv"), LEDGER_HEADER)),
        ("simulate_bass_repeat", bass + [f("ledger_bass_again.csv")],
         lambda o: _same_bytes(f("ledger_bass.csv"), f("ledger_bass_again.csv"))),
        ("simulate_pool", batch + [f("batch_pool.csv"), "--threads", "2"],
         lambda o: _header(f("batch_pool.csv"), batch_header)),
        ("simulate_serial", batch + [f("batch_serial.csv"), "--threads", "1"],
         lambda o: _same_bytes(f("batch_pool.csv"), f("batch_serial.csv"))),
        ("simulate_sir", ["simulate", *sir, "--max-jumps", str(sz["sir_jumps"]), "--seed", sseed,
                          "--out", f("ledger_sir.csv")],
         lambda o: _header(f("ledger_sir.csv"), LEDGER_HEADER)),
        ("fluid", ["fluid", "--model", "sir", "--N", str(sz["fluid_n"]), "--beta", "0.5", "--gamma", "0.25",
                   "--i0", "1", "--out", f("traj.csv")],
         lambda o: _header(f("traj.csv"), "t,s,i,r,c") + _json_keys(f("traj.csv.markers.json"), ["t_cr"])),
        ("fisher_bass", ["fisher", "--model", "bass", "--N", "10000", "--i0", "1", "-m", "464"], _fisher_stdout),
        ("fisher_sir", ["fisher", *sir, "-m", str(sz["fisher_m"]), "--replicates", str(sz["fisher_reps"]),
                        "--seed", sseed, "--out", f("fisher.json")],
         lambda o: _fisher_stdout(o) + _json_keys(f("fisher.json"), ["total", "mc_stderr", "per_k"])),
        ("estimate_sir", ["estimate", "--model", "sir", "--input", f("ledger_sir.csv"), "--delta", "0.18",
                          "--N", "100000", "--out", f("est_sir.json")],
         lambda o: _json_keys(f("est_sir.json"), est_keys)),
        ("estimate_bass", ["estimate", "--model", "bass", "--input", f("ledger_bass.csv"),
                           "--out", f("est_bass.json")],
         lambda o: _json_keys(f("est_bass.json"), est_keys)),
        ("peak", ["peak", "--N", *sz["peak_ns"], "--beta", "0.5", "--alpha", "1.0", "--out", f("peak.csv")],
         lambda o: _header(f("peak.csv"), "N,p,k_cr,k_star,time_ratio")),
        ("fit", ["fit", "--input", f("counts.csv"), "--gamma", "0.25", "--n-max", "1000000", "--fix-a",
                 "--out", f("fit.json")],
         lambda o: _json_keys(f("fit.json"), ["a_hat", "beta_hat", "n_hat", "loglik", "converged"])),
        ("peaks", ["peaks", "--input", f("counts.csv"), "--gamma1", "0.5", "--t", "60"],
         lambda o: [] if set(json.loads(o)) == {"t", "gamma1", "peaked"} else [f"peaks printed {o!r}"]),
        ("study_timeratio", ["study", "--config", f("timeratio.json"), "--out", f("results")],
         lambda o: _header(f("results/timeratio.csv"), "alpha,n,p,k_cr,k_star,ratio,pass")),
        ("study_fluid", ["study", "--config", f("fluid.json"), "--out", f("results")],
         lambda o: _header(f("results/fluidsandwich.csv"),
                           "n,beta,gamma,c0,i0,t_cr_lower,t_cr,t_star_inflection,t_star_rate,"
                           "t_star_upper,ratio,pass")),
    ]

    def op(slot, argv, check_output):
        def check(res):
            rc, out, err = res
            if rc != 0 or "error[" in err:
                return [f"{slot}: exit {rc}, stderr {err.strip()[-300:]!r}"]
            return check_output(out)

        return Op(slot, lambda: run_cli(ctx, argv), check)

    return Round([op(*c) for c in cmds], len(cmds))


def run_cli(ctx: Ctx, argv: list) -> tuple[int, str, str]:
    if ctx.in_process:
        from difflim import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.dispatch(argv)
        return rc, out.getvalue(), err.getvalue()
    proc = subprocess.run(
        [sys.executable, "-m", "difflim.cli", *argv],
        capture_output=True, text=True, timeout=120, cwd=ctx.workdir,
    )
    return proc.returncode, proc.stdout, proc.stderr


WORKLOADS = {
    "mc-information": mc_information,
    "mle-fits": mle_fits,
    "cli-roundtrip": cli_roundtrip,
}
