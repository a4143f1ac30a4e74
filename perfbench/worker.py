"""One workload in a fresh interpreter; started by run.py, never by hand.

Untraced: rounds 0, 1, 2, ... (each with its own inputs) run back to back
until ``--seconds`` have passed, always finishing at least one full
round, and every operation's latency is recorded, next to the time of a
calibration kernel run just before it.  Traced: passes over
round 0 alternate untraced and traced, so the tracing overhead is
measured on the same inputs; the spans of each traced pass are written
to ``spans.jsonl``.  Both write ``result.json`` into ``--workdir``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Ctx


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter work, small-array numpy
    calls and one larger vector pass.  It touches no difflim code, so it
    tracks only the speed the shared machine gives this process right now."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(20_000):
        x += (i * 0.5) ** 0.5
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(300):
        a = np.log1p(np.exp(-a)) + 0.1
    b = np.linspace(0.0, 1.0, 200_000)
    for _ in range(5):
        b = np.sqrt(b * 1.0001 + 1e-3)
    return time.perf_counter() - t0


def _time_ops(ops, deadline=None, cal=None):
    """Run ops in order; returns [(op, output, error, seconds)].  With a
    ``cal`` list, the calibration kernel is timed before every op."""
    done = []
    for op in ops:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if cal is not None:
            cal.append(calibration_kernel())
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception:
            out, err = None, traceback.format_exc(limit=3)
        done.append((op, out, err, time.perf_counter() - t0))
    return done


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, done):
        for op, out, err, _dt in done:
            self.attempted += 1
            try:
                msgs = [f"{op.slot}: raised\n{err}"] if err else op.check(out)
            except Exception:
                msgs = [f"{op.slot}: check raised\n{traceback.format_exc(limit=3)}"]
            if msgs:
                self.failed += 1
                self.failures.extend(msgs)


def untraced(build, ctx, seconds, first):
    lat: dict[str, list] = defaultdict(list)
    cal: list = []
    tally = Tally()
    rounds = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    rnd, rd = 0, first
    while True:
        done = _time_ops(rd.ops, deadline if rnd > 0 else None, cal)
        for op, _o, _e, dt in done:
            lat[op.slot].append(dt)
        tally.check(done)
        rounds += len(done) / len(rd.ops)
        if time.perf_counter() >= deadline:
            break
        rnd += 1
        rd = build(ctx, rnd)
    return {
        "slots": [op.slot for op in first.ops],
        "latencies": lat,
        "rounds": rounds,
        "measured_s": time.perf_counter() - start,
        "work_per_round": first.work,
        "calibration": cal,
        "tally": tally,
    }


def traced(build, ctx, seconds, spans_path):
    from tracing import LAYERS, Tracer

    for layer in LAYERS:  # import everything before the first timed pass
        importlib.import_module(f"difflim.{layer}")
    tracer = Tracer()
    tally = Tally()
    walls = {"untraced": [], "traced": []}
    deadline = time.perf_counter() + seconds
    with open(spans_path, "w") as fh:
        while True:
            for mode in ("untraced", "traced"):
                if mode == "traced":
                    tracer.spans.clear()
                    tracer.install()
                try:
                    rd = build(ctx, 0)
                    done = _time_ops(rd.ops)
                finally:
                    tracer.uninstall()
                walls[mode].append(sum(dt for *_x, dt in done))
                tally.check(done)
                if mode == "traced":
                    fh.write(json.dumps(tracer.spans) + "\n")
            if time.perf_counter() >= deadline:
                break
    return {"walls": walls, "tally": tally}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True, type=Path)
    args = ap.parse_args()

    build = WORKLOADS[args.workload]
    ctx = Ctx(seed=args.seed, tiny=args.tiny, workdir=args.workdir, in_process=bool(args.trace))
    if args.setup_only:
        build(ctx, 0)
        return
    if args.trace:
        res = traced(build, ctx, args.seconds, args.workdir / "spans.jsonl")
    else:
        res = untraced(build, ctx, args.seconds, build(ctx, 0))
    tally = res.pop("tally")
    res.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
        info=ctx.info,
        rss_self_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        rss_children_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    )
    (args.workdir / "result.json").write_text(json.dumps(res))


if __name__ == "__main__":
    main()
