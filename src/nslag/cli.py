"""Command-line entry point.

Subcommands: run (one trajectory), sweep (one config across conductivity
exponents), check (acceptance suite; --criteria 2 runs c02's convergence
study alone).  Exit code 0 on success, 1 when a verdict fails, 2 on
configuration errors (too sparse a sampling for the decay report among
them).
"""

from __future__ import annotations

import sys

from .core import ConfigError
from .harness import (RunConfig, acceptance_suite, check_outputs, check_runs,
                      load_config, run_simulation, sweep, sweep_configs,
                      write_config)
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
    report = run_simulation(cfg, args.config)
    print(f"run finished: {report.n_steps} steps, "
          f"{report.wall_seconds:.1f} s, series -> {cfg.series_path}")
    _print_verdicts(report.verdicts)
    return 0 if report.all_pass else 1


def _cmd_sweep(args):
    cfg = _load(args)
    configs = sweep_configs(cfg, _comma_list(args.beta, float, "--beta"))
    reports = sweep(check_runs(configs, args.out, args.config), args.out)
    for b, r in reports.items():
        mark = "pass" if r.all_pass else "FAIL"
        print(f"beta = {b:g}: {mark} ({r.n_steps} steps, "
              f"{r.wall_seconds:.1f} s)")
    print(f"aggregate -> {args.out}")
    return 0 if all(r.all_pass for r in reports.values()) else 1


def _cmd_check(args):
    cfg = _load(args)
    criteria = None
    if args.criteria is not None:
        criteria = _comma_list(args.criteria, int, "--criteria")
    report = acceptance_suite(cfg, args.out, criteria, args.config)
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
        print(f"step failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
