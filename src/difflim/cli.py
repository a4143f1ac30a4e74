"""Command-line interface.

Exit codes: 0 success, 1 validation/usage error (``error[validation]``),
2 runtime or numeric error (``error[runtime]``) or a malformed input file
(``error[data]``: a missing CSV column, an unreadable cell, or counts no
feasible path produces), 3 study assertion failure (``error[study]``).
Errors go to stderr with the machine-parsable prefix
``difflim: error[<kind>]:``.  Every primary output file gets a
``<name>.meta.json`` sidecar holding the resolved config, the command's
``wall_time_s`` and the process's ``peak_rss_mb``; timestamps live only in
the sidecar so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from pathlib import Path

# Each command imports what it runs: --version, --help and usage errors load no numpy.
from . import __version__

log = logging.getLogger("difflim")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_STUDY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"difflim: error[validation]: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _add_model_flags(p: argparse.ArgumentParser, need_n: bool = True):
    p.add_argument("--model", choices=["bass", "sir"], required=True, help="parameter regime")
    p.add_argument("--N", type=float, required=need_n, help="effective population size (units: individuals)")
    p.add_argument("--beta", type=float, default=0.5, help="transmission/imitation rate (per unit time)")
    p.add_argument("--gamma", type=float, default=0.0, help="recovery rate (per unit time)")
    p.add_argument("--p", type=float, default=0.0, help="innovation rate (per unit time)")
    p.add_argument("--i0", type=int, default=1, help="initial infected count")
    p.add_argument("--r0", type=int, default=0, help="initial recovered count")


def _params_from_args(args) -> ModelParams:
    from .core import ModelParams, Regime, validate_params

    regime = Regime.BASS if args.model == "bass" else Regime.SIR
    params = ModelParams(
        n=args.N,
        beta=args.beta,
        gamma=args.gamma if regime is Regime.SIR else 0.0,
        p=args.p if regime is Regime.BASS else 0.0,
        regime=regime,
    )
    return validate_params(params, strict_supercritical=getattr(args, "strict", False))


def build_parser() -> _Parser:
    parser = _Parser(prog="difflim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"difflim {__version__}")
    parser.add_argument(
        "--log-level", type=str.upper, choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"],
        default="WARNING", metavar="LOG_LEVEL", help="logging level (DEBUG/INFO/WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="simulate jump ledgers to CSV")
    _add_model_flags(sp)
    sp.add_argument("--max-jumps", "-m", type=int, required=True, help="observation horizon m (jumps)")
    sp.add_argument("--replicates", type=int, default=1, help="number of replicate ledgers")
    sp.add_argument("--seed", type=int, default=0, help="stream seed")
    sp.add_argument("--threads", type=int, default=None, help="ignored; replicates are simulated serially")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.add_argument("--strict", action="store_true", help="require beta > gamma")
    sp.add_argument(
        "--split-files", action="store_true",
        help="one file per replicate instead of a single file with a replicate column",
    )

    fp = sub.add_parser("fluid", help="integrate the deterministic model")
    _add_model_flags(fp)
    fp.add_argument("--t-max", type=float, default=None, help="integration horizon (time units)")
    fp.add_argument("--tol", type=float, default=1e-10, help="relative tolerance per step")
    fp.add_argument("--out", required=True, help="trajectory CSV path; markers go to <out>.markers.json")
    fp.add_argument("--strict", action="store_true", help="require beta > gamma")

    xp = sub.add_parser("fisher", help="information of the first m observations w.r.t. N")
    _add_model_flags(xp)
    xp.add_argument("--max-jumps", "-m", type=int, required=True, help="observation horizon m (jumps)")
    xp.add_argument("--replicates", type=int, default=1000, help="Monte-Carlo replicates (sir only)")
    xp.add_argument("--seed", type=int, default=0, help="stream seed")
    xp.add_argument("--strict", action="store_true", help="require beta > gamma")
    xp.add_argument("--out", default=None, help="optional report JSON path")

    ep = sub.add_parser("estimate", help="closed-form estimators from a ledger CSV")
    ep.add_argument("--model", choices=["bass", "sir"], required=True)
    ep.add_argument("--input", "-i", required=True, help="ledger CSV path")
    ep.add_argument("--max-jumps", "-m", type=int, default=None, help="observation prefix length")
    ep.add_argument("--delta", type=float, default=None, help="band half-width parameter in (0,1)")
    ep.add_argument("--N", type=float, default=None, help="population for the band geometry (sir)")
    ep.add_argument("--n-max", type=float, default=None, help="population upper bound (bass slab radius)")
    ep.add_argument("--c1", type=float, default=2.0, help="slab radius constant (bass)")
    ep.add_argument("--out", default=None, help="report JSON path (default stdout)")

    pp = sub.add_parser("peak", help="peak indices and expected-time ratio over a grid")
    pp.add_argument("--N", type=float, nargs="+", required=True, help="population grid")
    pp.add_argument("--beta", type=float, default=0.5, help="imitation rate")
    pp.add_argument("--p", type=float, default=None, help="innovation rate (fixed)")
    pp.add_argument("--alpha", type=float, default=None, help="innovation decay: p = beta / N^alpha")
    pp.add_argument("--out", default=None, help="CSV path (default stdout)")

    tp = sub.add_parser("fit", help="discrete-model likelihood fit from a counts CSV")
    tp.add_argument("--input", "-i", required=True, help="counts CSV path")
    tp.add_argument("--instance", default=None, help="instance id (default: first)")
    tp.add_argument("--gamma", type=float, required=True, help="known recovery rate")
    tp.add_argument("--n-max", type=float, required=True, help="upper bound on N")
    tp.add_argument("--starts", type=int, default=16, help="ignored; the profile fit has no starts")
    tp.add_argument("--seed", type=int, default=0, help="ignored; the profile fit draws no random numbers")
    tp.add_argument("--fix-a", action="store_true", help="pin the innovation arrival rate a at 0")
    tp.add_argument("--out", default=None, help="fit JSON path (default stdout)")

    kp = sub.add_parser("peaks", help="instances whose daily increments have peaked")
    kp.add_argument("--input", "-i", required=True, help="counts CSV path")
    kp.add_argument("--gamma1", type=float, required=True, help="peak fraction hyperparameter in (0,1)")
    kp.add_argument("--t", type=int, required=True, help="epoch index")
    kp.add_argument("--out", default=None, help="JSON path (default stdout)")

    st = sub.add_parser("study", help="run a seeded study from a JSON config")
    st.add_argument("--config", required=True, help="study config JSON")
    st.add_argument("--out", required=True, help="output directory")
    st.add_argument("--seed", type=int, default=None, help="override config seed")

    for name, sp_ in sub.choices.items():
        if name != "study":
            sp_.add_argument(
                "--config",
                default=None,
                help="JSON file of flag values; explicit flags win on conflict",
            )

    return parser


def _peak_rss_mb():
    """Peak resident set size of this process so far, in MB (ru_maxrss is in
    KB on Linux); None where the resource module is missing."""
    try:
        import resource
    except ImportError:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_meta(primary_path, args, extra=None) -> None:
    meta = {
        "command": args.command,
        "version": __version__,
        "config": {k: v for k, v in vars(args).items() if k != "command"},
        "wall_time_s": extra.get("wall_time_s") if extra else None,
        "peak_rss_mb": _peak_rss_mb(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if extra:
        meta.update({k: v for k, v in extra.items() if k != "wall_time_s"})
    path = Path(str(primary_path) + ".meta.json")
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _emit_json(obj: dict, out_path) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, default=float) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_simulate(args) -> int:
    from .core import RngStream, write_batch_csv, write_ledger_csv, write_params_json
    from .simulate import SimSpec, simulate_batch

    params = _params_from_args(args)
    spec = SimSpec(
        params=params,
        i0=args.i0,
        r0=args.r0,
        max_jumps=args.max_jumps,
        rng=RngStream(seed=args.seed),
    )
    t0 = time.perf_counter()
    ledgers = simulate_batch(spec, args.replicates)
    if args.replicates == 1:
        write_ledger_csv(ledgers[0], args.out)
    elif args.split_files:
        base = Path(args.out)
        for r, ledger in enumerate(ledgers):
            write_ledger_csv(ledger, base.with_name(f"{base.stem}.rep{r}{base.suffix}"))
    else:
        write_batch_csv(ledgers, args.out)
    write_params_json(params, str(args.out) + ".params.json")
    _write_meta(args.out, args, {"wall_time_s": time.perf_counter() - t0})
    return EXIT_OK


def cmd_fluid(args) -> int:
    from .fluid import integrate, peak_bounds, peak_times

    params = _params_from_args(args)
    t0 = time.perf_counter()
    traj = integrate(
        params,
        s0=params.n - args.i0 - args.r0,
        i0=args.i0,
        r0=args.r0,
        t_max=args.t_max,
        tol=args.tol,
    )
    markers = peak_times(traj)
    side = dict(markers)
    if args.model == "sir" and params.beta > params.gamma > 0 and params.n >= 16:
        b = peak_bounds(params, c0=args.i0 + args.r0, i0=args.i0)
        side.update(
            {"t_cr_lower": b.t_cr_lower, "t_star_upper": b.t_star_upper, "nu1": b.nu1, "nu2": b.nu2}
        )
    import csv as _csv

    with open(args.out, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["t", "s", "i", "r", "c"])
        for row in zip(traj.ts, traj.s, traj.i, traj.r, traj.c):
            w.writerow([repr(float(x)) for x in row])
    _emit_json(side, str(args.out) + ".markers.json")
    _write_meta(args.out, args, {"wall_time_s": time.perf_counter() - t0})
    return EXIT_OK


def cmd_fisher(args) -> int:
    from .core import RngStream
    from .fisher import cramer_rao_rel_error, fisher_bass, fisher_sir_mc

    t0 = time.perf_counter()
    params = _params_from_args(args)
    if args.model == "bass":
        report = fisher_bass(params.n, args.i0, args.max_jumps)
    else:
        report = fisher_sir_mc(
            params, args.i0, args.r0, args.max_jumps, args.replicates, RngStream(seed=args.seed)
        )
    floor = cramer_rao_rel_error(report)
    print(f"J_total      {report.total:.10e}")
    print(f"cr_floor     {floor:.10e}")
    print(f"J*N^4/m^3    {report.scaling_ratio:.6f}")
    if args.out:
        obj = report.to_json_dict()
        obj["cr_floor"] = floor
        _emit_json(obj, args.out)
        _write_meta(args.out, args, {"wall_time_s": time.perf_counter() - t0, **report.work})
    return EXIT_OK


def cmd_estimate(args) -> int:
    from .core import ObservationSet, read_ledger_csv
    from .estimate import estimate_bass, estimate_sir, sir_confidence_intervals

    t0 = time.perf_counter()
    ledger = read_ledger_csv(args.input)
    obs = ObservationSet.from_ledger(ledger, args.max_jumps)
    if args.model == "sir":
        report = estimate_sir(obs)
        if args.delta is not None:
            n_band = args.N if args.N is not None else ledger.n
            sir_confidence_intervals(report, args.delta, n_band, obs.m, obs.c0)
    else:
        n_known = args.n_max if args.n_max is not None else ledger.n
        report = estimate_bass(obs, n_known=n_known, c1=args.c1)
    _emit_json(report.to_json_dict(), args.out)
    if args.out:
        _write_meta(args.out, args, {"wall_time_s": time.perf_counter() - t0})
    return EXIT_OK


def cmd_peak(args) -> int:
    from .core import ValidationError
    from .estimate import bass_peak_indices, bass_time_ratio

    t0 = time.perf_counter()
    if (args.p is None) == (args.alpha is None):
        raise ValidationError("specify exactly one of --p or --alpha")
    rows = []
    for n in args.N:
        if not 1 < n < math.inf:
            raise ValidationError(f"--N must be a finite number above 1, got {n}")
        p = args.p if args.p is not None else args.beta / n ** args.alpha
        k_cr, k_star = bass_peak_indices(n, p, args.beta)
        rows.append((n, p, k_cr, k_star, bass_time_ratio(n, p, args.beta)))
    lines = ["N,p,k_cr,k_star,time_ratio"]
    lines += [f"{n},{p},{k_cr},{k_star},{ratio:.8f}" for n, p, k_cr, k_star, ratio in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        _write_meta(args.out, args, {"wall_time_s": time.perf_counter() - t0})
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_fit(args) -> int:
    from .core import DataCorruptionError, ValidationError
    from .discrete import OptimizerConfig, fit_mle, read_counts_csv

    t0 = time.perf_counter()
    collection = read_counts_csv(args.input)
    if not collection:
        raise ValidationError("no instances in counts file")
    series = collection[0]
    if args.instance is not None:
        matches = [s for s in collection if s.instance_id == args.instance]
        if not matches:
            raise ValidationError(f"instance {args.instance!r} not found")
        series = matches[0]
    cfg = OptimizerConfig(starts=args.starts, seed=args.seed, fit_a=not args.fix_a)
    result = fit_mle(series, gamma_known=args.gamma, n_max=args.n_max, cfg=cfg)
    if not math.isfinite(result.loglik):
        raise DataCorruptionError(
            f"{args.input}: instance {series.instance_id}: no (a, beta, N) in the box gives these "
            "counts a positive likelihood (a count follows an epoch with no infected unit and a is pinned at 0)"
        )
    _emit_json(result.to_json_dict(), args.out)
    if args.out:
        _write_meta(
            args.out, args,
            {"wall_time_s": time.perf_counter() - t0, "loglik_evals": result.loglik_evals},
        )
    return EXIT_OK


def cmd_peaks(args) -> int:
    from .discrete import peaked_set, read_counts_csv

    t0 = time.perf_counter()
    collection = read_counts_csv(args.input)
    ids = sorted(peaked_set(collection, args.gamma1, args.t))
    _emit_json({"t": args.t, "gamma1": args.gamma1, "peaked": ids}, args.out)
    if args.out:
        _write_meta(args.out, args, {"wall_time_s": time.perf_counter() - t0})
    return EXIT_OK


def cmd_study(args) -> int:
    from dataclasses import replace

    from .experiments import StudyConfig, run_study, validate_study

    config = StudyConfig.from_json(args.config)
    validate_study(config)  # before --out is made, so a refused config leaves nothing
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = out_dir / config.study.lower()
    seed = config.seed if args.seed is None else args.seed
    config = replace(config, seed=seed, output_path=str(base))
    t0 = time.perf_counter()
    result = run_study(config)
    _write_meta(base, args, {"wall_time_s": time.perf_counter() - t0})
    if not result.all_passed:
        print("difflim: error[study]: one or more study checks failed", file=sys.stderr)
        return EXIT_STUDY
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "fluid": cmd_fluid,
    "fisher": cmd_fisher,
    "estimate": cmd_estimate,
    "peak": cmd_peak,
    "fit": cmd_fit,
    "peaks": cmd_peaks,
    "study": cmd_study,
}


def _inject_config(argv: list[str]) -> list[str]:
    """Expand ``<cmd> --config file.json ...`` into flags placed before the
    explicit ones, so explicit flags win on conflict.  The study subcommand
    keeps --config for its own study definition."""
    if not argv or argv[0] == "study" or "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        return argv
    with open(argv[idx + 1]) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{argv[idx + 1]}: expected a JSON object of flag values, got {type(cfg).__name__}")
    injected: list[str] = []
    for key, value in cfg.items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            if value:
                injected.append(flag)
        elif isinstance(value, list):
            injected.append(flag)
            injected.extend(str(v) for v in value)
        else:
            injected.extend([flag, str(value)])
    return [argv[0]] + injected + argv[1:idx] + argv[idx + 2 :]


def dispatch(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _inject_config(list(argv))
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, ValueError) as exc:
        print(f"difflim: error[validation]: bad config file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    logging.basicConfig(level=args.log_level)
    log.info("resolved config: %s", {k: v for k, v in vars(args).items()})
    from .core import DataCorruptionError, ValidationError

    try:
        return COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"difflim: error[validation]: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DataCorruptionError as exc:
        print(f"difflim: error[data]: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ArithmeticError, ValueError, OSError) as exc:
        print(f"difflim: error[runtime]: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
