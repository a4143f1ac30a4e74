"""difflim benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload mc-information --seed 1 --seconds 30 --trace 0

Run from the root of a difflim checkout; the library is imported from
``src/``.  Every workload runs in a fresh child process.  With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json
(set-up time is the median of several fresh interpreters that import
difflim and generate the inputs); with ``--trace 1`` it reports the
per-layer metrics from spans recorded around every public difflim
function.  Human-readable lines come first; the last line of standard
output is the JSON result.  Scratch files go to a temporary directory
under ``.perfbench-work/`` in the checkout, removed on exit.

``--size tiny`` runs the same code on tiny inputs (see smoke.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import layer_metrics  # noqa: E402
from workloads import WORK_UNITS, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
PROBE_SAMPLES = 3
RUN_LIMIT_S = 170.0  # a run, children included, ends within 180 s


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DIFFLIM_THREADS"}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, root: Path, env: dict):
        self.root = root
        self.env = env
        self.t_end = time.monotonic() + RUN_LIMIT_S

    def run(self, argv, **kw) -> subprocess.CompletedProcess:
        """Run a child in its own process group, killing the group on timeout."""
        timeout = self.t_end - time.monotonic()
        if timeout <= 0:
            raise BenchError("time limit reached")
        proc = subprocess.Popen(
            argv, cwd=self.root, env=self.env, start_new_session=True,
            stdout=subprocess.PIPE, stderr=kw.get("stderr", subprocess.PIPE), text=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out: {' '.join(argv[:4])}")
        return subprocess.CompletedProcess(argv, proc.returncode, out, err)

    def timed(self, argv) -> float:
        t0 = time.perf_counter()
        proc = self.run(argv)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(argv[:4])} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return dt

    def worker_argv(self, args, workdir: Path, *extra) -> list:
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--workdir", str(workdir), *extra]
        return argv + (["--tiny"] if args.size == "tiny" else [])


def setup_times(runner: Runner, args, tmp: Path) -> list:
    times = []
    for i in range(SETUP_SAMPLES):
        d = tmp / f"setup{i}"
        d.mkdir()
        times.append(runner.timed(runner.worker_argv(args, d, "--setup-only")))
    return times


def cli_probes(runner: Runner) -> dict:
    """Interpreter start, difflim.cli import and its scipy share, each the
    median of a few fresh processes."""
    py = sys.executable
    spawn = statistics.median(runner.timed([py, "-c", "pass"]) for _ in range(PROBE_SAMPLES))
    imports, scipy = [], []
    code = "import time; t = time.perf_counter(); import difflim.cli; print(time.perf_counter() - t)"
    for _ in range(PROBE_SAMPLES):
        proc = runner.run([py, "-X", "importtime", "-c", code])
        if proc.returncode != 0:
            raise BenchError(f"import difflim.cli failed: {proc.stderr[-2000:]}")
        imports.append(float(proc.stdout.strip()))
        us = 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S.*)$", line)
            if m and m.group(2).strip().startswith("scipy"):
                us += int(m.group(1))
        scipy.append(us / 1e6)
    # -X importtime slows imports a little; the import time is read without it.
    clean = [float(runner.run([py, "-c", code]).stdout.strip()) for _ in range(PROBE_SAMPLES)]
    return {
        "cli.spawn_s": spawn,
        "cli.import_s": statistics.median(clean),
        "cli.import_scipy_s": statistics.median(scipy),
    }


def tail(values: list) -> tuple[float, float, int] | None:
    """Highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    if len(xs) <= 10:
        return None
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def provenance(root: Path) -> str:
    sha = "none (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "difflim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    versions = " ".join(f"{pkg}={metadata.version(pkg)}" for pkg in ("numpy", "scipy"))
    return (f"git={sha} src_sha256={digest.hexdigest()[:16]} nproc={os.cpu_count()} "
            f"affinity={len(os.sched_getaffinity(0))} python={platform.python_version()} {versions}")


def end_to_end(args, res: dict, setups: list) -> tuple[dict, list]:
    setup_s = statistics.median(setups)
    lat = res["latencies"]
    wall = sum(statistics.median(lat[slot]) for slot in res["slots"])
    cal = statistics.median(res["calibration"])
    rss = res["rss_children_mb"] if args.workload == "cli-roundtrip" else res["rss_self_mb"]
    metrics = {"setup_s": setup_s, "wall_cal": wall / cal, "peak_rss_mb": rss}
    n_ops = sum(len(v) for v in lat.values())
    name, unit_desc = WORK_UNITS[args.workload]
    lines = [
        f"setup_s      {setup_s:.4f} s    median of {len(setups)} fresh interpreters importing difflim and "
        f"making the inputs: {', '.join(f'{x:.3f}' for x in setups)}",
        f"wall_s       {wall:.4f} s    one pass over {len(res['slots'])} operations (sum of per-operation "
        f"medians); {res['rounds']:.2f} passes, {n_ops} operations in {res['measured_s']:.1f} s",
        f"wall_cal     {wall / cal:.2f} cal  wall_s / {cal * 1e3:.3f} ms, the median of {len(res['calibration'])} "
        f"calibration-kernel runs (fastest {min(res['calibration']) * 1e3:.3f} ms)",
        f"peak_rss_mb  {rss:.1f} MB   max RSS of the "
        + ("difflim command processes" if args.workload == "cli-roundtrip" else "workload process"),
        f"error_frac   {res['failed'] / res['attempted']:.4g} ratio  {res['failed']} failed of "
        f"{res['attempted']} operations",
        f"{name:<12} {res['work_per_round'] / wall:.6g} 1/s  {unit_desc} per round / wall_s",
    ]
    if args.workload == "cli-roundtrip":
        all_lat = [x for v in lat.values() for x in v]
        lines.append(f"cmd_p50_s    {statistics.median(all_lat):.4f} s    median command latency, "
                     f"spawn to exit, {len(all_lat)} samples")
        t = tail(all_lat)
        lines.append(f"cmd_tail_s   {t[0]:.4f} s    p{t[1]:.1f}, 10 of {t[2]} samples beyond it" if t
                     else f"cmd_tail_s   n/a          only {len(all_lat)} samples")
    for slot in res["slots"]:
        xs = lat[slot]
        lines.append(f"  op {slot:<22} median {statistics.median(xs):.4f} s over {len(xs)}")
    return metrics, lines


def per_layer(res: dict, spans_path: Path, probes: dict) -> tuple[dict, list]:
    passes = [layer_metrics(json.loads(line)) for line in spans_path.read_text().splitlines()]
    metrics = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    metrics.update(probes)
    u, t = (statistics.median(res["walls"][k]) for k in ("untraced", "traced"))
    metrics["trace.overhead_frac"] = t / u - 1.0
    lines = [f"traced passes {len(passes)}, untraced {len(res['walls']['untraced'])}: "
             f"median pass {t:.4f} s traced, {u:.4f} s untraced"]
    return metrics, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "difflim" / "__init__.py").is_file():
        print(f"perfbench: error: no difflim sources under {root / 'src'}; run from a difflim checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS or args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    runner = Runner(root, child_env(root))
    load_before = os.getloadavg()[0]
    (root / ".perfbench-work").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".perfbench-work"))
    try:
        setups = None if args.trace else setup_times(runner, args, tmp)
        main_dir = tmp / "run"
        main_dir.mkdir()
        proc = runner.run(runner.worker_argv(args, main_dir), stderr=None)
        if proc.returncode != 0:
            raise BenchError(f"workload process exited {proc.returncode}")
        res = json.loads((main_dir / "result.json").read_text())
        if args.trace:
            metrics, lines = per_layer(res, main_dir / "spans.jsonl", cli_probes(runner))
        else:
            metrics, lines = end_to_end(args, res, setups)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (root / ".perfbench-work").rmdir()
        except OSError:
            pass
    load_after = os.getloadavg()[0]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print(f"provenance: {provenance(root)}")
    print(f"load1: before={load_before:.2f} after={load_after:.2f}")
    for line in lines:
        print(line)
    if args.trace:
        for m in wanted:
            print(f"{m['name']:<38} {metrics[m['name']]:.6g} {m['unit']}")
    for key, vals in sorted(res["info"].items()):
        print(f"info (not checked): {key} median {statistics.median(vals):.4g} over {len(vals)} rounds, "
              f"range {min(vals):.4g}..{max(vals):.4g}")
    for msg in res["failures"]:
        print(f"FAILED {msg}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
