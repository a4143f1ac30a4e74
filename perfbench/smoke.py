"""Self-test of the benchmark on tiny inputs; run from the checkout root:

    python3 perfbench/smoke.py

For every workload it runs run.py once untraced and twice traced with
``--size tiny`` (the same code as a real run) and asserts that

* every end-to-end and per-layer metric of BENCHMARK.json is emitted with
  its unit, and the human-readable lines name every end-to-end quantity;
* the counts repeat exactly for one seed across the two traced runs;
* every output check passed.

It also asserts that run.py fails, without a result line, in a directory
that holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SEED = 7
REPEATED = ("simulate.path_steps", "discrete.loglik_calls", "core.rng_streams")
PRINTED = {
    "mc-information": ("path_steps_per_s",),
    "mle-fits": ("fits_per_s",),
    "cli-roundtrip": ("cmd_p50_s", "cmd_tail_s"),
}


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def result(proc: subprocess.CompletedProcess, wanted: list) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stderr[-3000:]
    human, last = proc.stdout.rstrip("\n").rsplit("\n", 1)
    res = json.loads(last)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, human
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}, got
    return res, human


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        _res, human = result(bench(ROOT, name, 0), spec["end_to_end"])
        for label in ("setup_s", "wall_s", "wall_cal", "peak_rss_mb", "error_frac") + PRINTED[name]:
            assert f"\n{label} " in "\n" + human, f"{name}: {label} not printed"
        runs = [result(bench(ROOT, name, 1), spec["per_layer"])[0] for _ in range(2)]
        for key in REPEATED:
            a, b = (r["metrics"][key]["value"] for r in runs)
            assert a == b, f"{name}: {key} {a} != {b}"
        a, b = (r["failed"] / r["attempted"] for r in runs)
        assert a == b, f"{name}: error_frac {a} != {b}"
        print(f"smoke: {name} ok")

    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="smoke-bare-", dir=ROOT / ".perfbench-work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare)
        try:
            (ROOT / ".perfbench-work").rmdir()
        except OSError:
            pass
    print("smoke: bare directory refused ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
