"""Command-line entry point.

Subcommands: run (one trajectory), sweep (one config across conductivity
exponents), mms (convergence study), check (acceptance suite).  Exit code
0 on success, 1 when a verdict fails, 2 on configuration errors (too
sparse a sampling for the decay report among them).
"""

from __future__ import annotations

import sys

from .core import ConfigError
from .harness import (RunConfig, acceptance_suite, check_outputs,
                      load_config, mms_convergence, mms_orders_pass,
                      run_simulation, sweep, write_config, write_json)
from .stepper import StepFailure


def _load(args):
    return load_config(args.config) if args.config else RunConfig()


def _comma_list(text, convert, flag):
    """Values of a comma-separated flag; a bad one, or none, is a
    ConfigError."""
    try:
        values = [convert(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"{flag}: bad value in {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} needs at least one value")
    return values


def _print_verdicts(verdicts):
    width = max(len(name) for name in verdicts)
    for name, v in verdicts.items():
        mark = "pass" if v["pass"] else "FAIL"
        print(f"  {name:<{width}}  {mark}  measured={v['measured']}"
              f"  threshold={v['threshold']}")


def _cmd_run(args):
    cfg = _load(args)
    report = run_simulation(cfg)
    print(f"run finished: {report.n_steps} steps, "
          f"{report.wall_seconds:.1f} s, series -> {cfg.series_path}")
    _print_verdicts(report.verdicts)
    return 0 if report.all_pass else 1


def _cmd_sweep(args):
    cfg = _load(args)
    reports = sweep(cfg, _comma_list(args.beta, float, "--beta"), args.out)
    for b, r in reports.items():
        mark = "pass" if r.all_pass else "FAIL"
        print(f"beta = {b:g}: {mark} ({r.n_steps} steps, "
              f"{r.wall_seconds:.1f} s)")
    print(f"aggregate -> {args.out}")
    return 0 if all(r.all_pass for r in reports.values()) else 1


def _cmd_mms(args):
    if args.out is not None:
        check_outputs([("--out", args.out)])
    report = mms_convergence()
    print("spatial orders: ",
          ["%.3f" % p for p in report["spatial"]["orders"]])
    print("temporal orders:",
          ["%.3f" % p for p in report["temporal"]["orders"]])
    if args.out is not None:
        write_json(report, args.out)
    return 0 if mms_orders_pass(report) else 1


def _cmd_check(args):
    cfg = _load(args)
    criteria = None
    if args.criteria is not None:
        criteria = _comma_list(args.criteria, int, "--criteria")
    report = acceptance_suite(cfg, args.out, criteria)
    for name, v in report["criteria"].items():
        mark = "pass" if v["pass"] else "FAIL"
        print(f"  {name:<28} {mark}  ({v['seconds']} s)")
    print(f"report -> {args.out}")
    return 0 if report["all_pass"] else 1


def build_parser():
    import argparse   # on first use: importing nslag.cli does not load it

    ap = argparse.ArgumentParser(
        prog="nslag",
        description="1D viscous heat-conducting gas in mass coordinates: "
                    "simulator and long-time diagnostics")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one configured trajectory")
    p.add_argument("--config", help="flat key = value config file")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep",
                       help="run the config across conductivity exponents")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--beta", required=True,
                   help="comma-separated exponent values, e.g. 0.5,1,2.5")
    p.add_argument("--out", default="sweep.json", help="aggregate JSON path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("mms", help="c02's manufactured-solution study")
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(func=_cmd_mms)

    p = sub.add_parser("check", help="run the acceptance suite")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--criteria", help="comma-separated subset, e.g. 1,2,10")
    p.add_argument("--out", default="acceptance.json")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("write-config",
                       help="write the default config to a file")
    p.add_argument("path")
    p.set_defaults(func=lambda a: (check_outputs([("path", a.path)]),
                                   write_config(RunConfig(), a.path),
                                   print(f"defaults -> {a.path}"), 0)[-1])
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StepFailure as exc:
        where = f"; state -> {exc.snapshot_path}" if exc.snapshot_path else ""
        print(f"step failure: {exc}{where}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
