"""Run-time spans around the public functions of every difflim module.

Nothing under ``src/`` knows about this file: ``Tracer.install`` replaces
each public function (and each public method of a class defined in a
layer module) at every place it is bound -- ``simulate_paths`` lives in
``difflim.simulate`` but is also bound in ``difflim.fisher`` and
``difflim.experiments`` -- and ``uninstall`` puts the originals back.
Spans are kept in memory as tuples and turned into per-layer metrics
by ``layer_metrics``.

Self time is counted per layer: a span's duration minus the time covered
by the outermost descendant spans of *other* layers.  A same-layer call
(``loglik`` inside ``fit_mle``) therefore stays inside its caller's self
time and is also reported under its own name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import types
from collections import defaultdict

LAYERS = ("core", "simulate", "fluid", "fisher", "estimate", "discrete", "experiments", "cli")
STUDIES = ("FisherScaling", "TimeRatio", "Coverage", "Dominance", "FluidSandwich", "RelErrorScaling")


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _paths_attrs(fn, args, kwargs, block):
    a = _bound(fn, args, kwargs)
    m, r = int(a["m"]), int(a["replicates"])
    return {"steps": m * r, "live": int(block.alive[:m].sum())}


def _ledger_attrs(fn, args, kwargs, ledger):
    return {"jumps": sum(1 for e in ledger.entries if e.kind is not None)}


def _csv_attrs(fn, args, kwargs, _result):
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


def _fit_attrs(fn, args, kwargs, fit):
    useful = sum(1 for t in fit.trace if t["loglik"] >= fit.loglik - 1e-6)
    return {"starts": len(fit.trace), "useful": useful}


def _study_attrs(fn, args, kwargs, _result):
    return {"study": _bound(fn, args, kwargs)["config"].study}


# Work counters read from a call's arguments or result once it returns.
POST = {
    "simulate.simulate_paths": _paths_attrs,
    "simulate.simulate_ledger": _ledger_attrs,
    "core.write_ledger_csv": _csv_attrs,
    "core.write_batch_csv": _csv_attrs,
    "discrete.fit_mle": _fit_attrs,
    "experiments.run_study": _study_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[tuple[int, str]] = []  # (sid, layer) of the open spans
        self._next = 0
        self._undo: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        post = POST.get(name)
        named = name in NAMED
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A same-layer call that no metric names stays inside its caller's
            # span; a span per inner call (next_jump per jump) would cost more
            # than the work it measures.
            if stack and stack[-1][1] == layer and not named:
                return fn(*args, **kwargs)
            sid = self._next
            self._next += 1
            parent = stack[-1][0] if stack else -1
            stack.append((sid, layer))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, name, layer, t0, clock(), None))
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            attrs = None
            if post is not None:
                # The bookkeeping gets a span of its own so that it is not
                # charged to the caller's self time.
                bid = self._next
                self._next += 1
                attrs = post(fn, args, kwargs, result)
                spans.append((bid, parent, "trace.bookkeeping", "trace", t1, clock(), None))
            spans.append((sid, parent, name, layer, t0, t1, attrs))
            return result

        return traced

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"difflim.{layer}") for layer in LAYERS}
        sites = list(mods.values()) + [importlib.import_module("difflim")]
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self._wrap(f"{layer}.{attr}", layer, obj)
                    for site in sites:
                        for key, val in list(vars(site).items()):
                            if val is obj:
                                self._undo.append((site, key, val))
                                setattr(site, key, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        if isinstance(raw, staticmethod):
                            new = staticmethod(self._wrap(f"{layer}.{attr}.{meth}", layer, raw.__func__))
                        elif isinstance(raw, types.FunctionType):
                            new = self._wrap(f"{layer}.{attr}.{meth}", layer, raw)
                        else:
                            continue
                        self._undo.append((obj, meth, raw))
                        setattr(obj, meth, new)

    def uninstall(self) -> None:
        for site, key, val in reversed(self._undo):
            setattr(site, key, val)
        self._undo.clear()


# -- derived metrics ------------------------------------------------------


def layer_self_times(spans) -> dict[int, float]:
    """Self time per span id, with same-layer descendants folded in."""
    by_id = {s[0]: s for s in spans}
    cover: dict[int, float] = defaultdict(float)
    for sid, parent, _n, layer, t0, t1, _a in sorted(spans, key=lambda s: s[0], reverse=True):
        p = by_id.get(parent)
        if p is None:
            continue
        cover[parent] += (t1 - t0) if layer != p[3] else cover[sid]
    return {s[0]: (s[5] - s[4]) - cover[s[0]] for s in spans}


# Per-layer metric -> the functions whose layer self time it sums.
SECONDS = {
    "core.csv_write_s": ("core.write_ledger_csv", "core.write_batch_csv"),
    "core.csv_read_s": ("core.read_ledger_csv",),
    "simulate.paths_s": ("simulate.simulate_paths",),
    "simulate.ledger_s": ("simulate.simulate_ledger",),
    "simulate.batch_s": ("simulate.simulate_batch",),
    "fisher.sir_mc_s": ("fisher.fisher_sir_mc",),
    "fisher.oracle_s": ("fisher.score_variance_oracle",),
    "fisher.exact_s": ("fisher.fisher_sir_exact",),
    "fisher.bass_s": ("fisher.fisher_bass",),
    "discrete.fit_s": ("discrete.fit_mle",),
    "discrete.loglik_s": ("discrete.loglik",),
    "discrete.simulate_s": ("discrete.simulate_discrete",),
    "discrete.csv_read_s": ("discrete.read_counts_csv",),
    "experiments.mle_population_s": ("experiments.mle_population_bass",),
    "estimate.sir_s": ("estimate.estimate_sir",),
    "estimate.bass_s": ("estimate.estimate_bass",),
    "estimate.time_ratio_s": ("estimate.bass_time_ratio",),
    "fluid.integrate_s": ("fluid.integrate",),
    "fluid.peak_times_s": ("fluid.peak_times",),
    "fluid.peak_bounds_s": ("fluid.peak_bounds",),
    "cli.dispatch_s": ("cli.dispatch",),
}
# Per-layer metric -> the function whose calls it counts.
CALLS = {
    "core.rng_streams": "core.RngStream.generator",
    "simulate.paths_calls": "simulate.simulate_paths",
    "discrete.fit_calls": "discrete.fit_mle",
    "discrete.loglik_calls": "discrete.loglik",
    "experiments.mle_population_calls": "experiments.mle_population_bass",
}
NAMED = {f for fs in SECONDS.values() for f in fs} | set(CALLS.values()) | set(POST)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Every per-layer metric of the benchmark from one traced pass."""
    self_t = layer_self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    secs: dict[str, float] = defaultdict(float)
    attr: dict[str, float] = defaultdict(float)
    study_s = {s: 0.0 for s in STUDIES}
    for sid, _p, name, _layer, _t0, _t1, attrs in spans:
        calls[name] += 1
        secs[name] += self_t[sid]
        for key, val in (attrs or {}).items():
            if key == "study":
                study_s[val] += self_t[sid]
            else:
                attr[f"{name}.{key}"] += val

    out = {metric: sum(secs[f] for f in fs) for metric, fs in SECONDS.items()}
    out.update({metric: calls[f] for metric, f in CALLS.items()})
    out.update({f"experiments.study_s.{s}": v for s, v in study_s.items()})
    steps = attr["simulate.simulate_paths.steps"]
    out.update({
        "core.csv_bytes_written": attr["core.write_ledger_csv.bytes"] + attr["core.write_batch_csv.bytes"],
        "simulate.path_steps": steps,
        "simulate.path_steps_per_s": _ratio(steps, out["simulate.paths_s"]),
        "simulate.live_step_frac": _ratio(attr["simulate.simulate_paths.live"], steps),
        "simulate.ledger_jumps_per_s": _ratio(attr["simulate.simulate_ledger.jumps"], out["simulate.ledger_s"]),
        "discrete.loglik_per_fit": _ratio(out["discrete.loglik_calls"], out["discrete.fit_calls"]),
        "discrete.useful_start_frac": _ratio(attr["discrete.fit_mle.useful"], attr["discrete.fit_mle.starts"]),
    })
    return out
