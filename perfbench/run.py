"""nslag benchmark: time one workload end to end, or trace it per layer.

Run from the repository root:

    python3 perfbench/run.py --workload bump_default --seed 0 --seconds 18 --trace 0

Each workload call runs to completion in a fresh process (child.py): one
client in a closed loop.  Calls repeat while the next one is expected to
end within --seconds (at least one call).  The last line of stdout is a
JSON object with the end-to-end metrics (--trace 0) or, after one
untraced reference call and then traced calls, the per-layer metrics
(--trace 1).  The line before it holds provenance, the seeded inputs, the
raw times and each call's outcome.  The exit code is 1 when the
correctness gate trips, and 2 when nslag's source is missing from ./src
or a child fails.

Times are reported at a fixed reference speed.  A shared machine can
drift in speed by tens of percent within seconds; the scaling cancels that
drift and leaves the program's own cost.  Every child times a fixed
reference kernel right after its set-up, and a set-up time is scaled by
REF_S over that kernel time.  An untraced call is scaled by the mean of
the kernel slices its speed probe timed through the call
(child.SpeedProbe); a traced call, which carries no probe, by the mean of
the kernel times taken before and after it.  `check`'s sweep runs its
betas one after another in the one process (NSLAG_THREADS=1), so that
the probe follows all of it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

sys.dont_write_bytecode = True  # leave no __pycache__ in the benchmark dir
import child  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3       # set-up timings per run, median reported
REF_S = 0.5             # reference kernel time that defines reference speed
REF_SLICE_S = REF_S * child.PROBE_ITERATIONS / child.REF_ITERATIONS
RUN_LIMIT_S = 170.0     # every child is killed past this point of the run


class ChildFailed(RuntimeError):
    """A child process crashed, timed out or wrote no result."""


def provenance(root, seed):
    """Where and on what the numbers were taken."""
    def read(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return ""

    cpu = next((line.split(":", 1)[1].strip()
                for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}/"
        level, kind = read(base + "level").strip(), read(base + "type").strip()
        if level in ("2", "3") and kind == "Unified":
            caches[f"l{level}_per_cpu0"] = read(base + "size").strip()
    commit = None   # not a git checkout
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "nslag")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        **caches,
        "seed": seed,
        "note": "byte counts are computed from file sizes, not measured "
                "bandwidth; bump_fine's working set fits in L2",
    }


def run_child(spec, cwd, env, deadline):
    """Start child.py in a new process group, wait, return its result."""
    os.makedirs(cwd)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        cwd=cwd, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # the group holds the child and anything it started
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        raise ChildFailed(f"{spec['workload']} timed out")
    if code != 0:
        raise ChildFailed(f"{spec['workload']} child exited with {code}")
    with open(os.path.join(cwd, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def gate(name, tiny, calls):
    """Problems that make the run incorrect; an empty list passes."""
    expected = workloads.WORKLOADS[name].verdicts
    red = workloads.known_red(name, tiny)
    problems = []
    for i, call in enumerate(calls):
        if call["error"]:
            problems.append(f"call {i}: {call['error']}")
        for verdict in expected:
            if verdict not in red and not call["verdicts"].get(verdict):
                problems.append(f"call {i}: {verdict} no longer passes")
    if len({json.dumps(c["series_sha256"], sort_keys=True)
            for c in calls}) > 1:
        problems.append("calls with one seed wrote different series")
    return problems


def speed(call):
    """Factor that scales one child's times to reference speed."""
    if call.get("probe_s"):
        return REF_SLICE_S / statistics.mean(call["probe_s"])
    return REF_S / statistics.mean(call["ref_s"])


def scaled_wall(calls):
    return statistics.mean(c["wall_s"] * speed(c) for c in calls)


def end_to_end(calls, setups):
    def pass_frac(call):
        verdicts = call["verdicts"]
        return sum(verdicts.values()) / len(verdicts) if verdicts else 0.0

    wall = scaled_wall(calls)
    steps = [c["n_steps"] for c in calls if c["n_steps"]]
    return {
        "wall_s": (wall, "s"),
        "us_per_step": (wall / statistics.mean(steps) * 1e6 if steps
                        else 0.0, "us"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in calls),
                        "MB"),
        "verdict_pass_frac": (min(pass_frac(c) for c in calls), "ratio"),
    }


def per_layer(reference, traced):
    layers = [{k: v * speed(c) if _unit(k) in ("s", "us") else v
               for k, v in c["layers"].items()}
              for c in traced if "layers" in c]
    if not layers:
        return {}
    out = {k: (statistics.median(x[k] for x in layers), _unit(k))
           for k in layers[0]}
    traced_wall = scaled_wall(traced)
    reference_wall = scaled_wall([reference])
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - reference_wall, "s")
    out["trace.overhead_frac"] = (traced_wall / reference_wall - 1.0, "ratio")
    return out


def _unit(metric):
    if metric.endswith((".us", "_us")):
        return "us"
    if metric.endswith((".s", "_s", ".run_s_sum")):
        return "s"
    if metric.endswith((".share", ".utilisation")):
        return "ratio"
    if metric.endswith("_bytes"):
        return "B"
    return "count"


def measure(args, root, work):
    # nslag is compiled from source on every import: the checkout keeps no
    # byte code, and set-up time includes the compile
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["NSLAG_THREADS"] = "1"  # check's sweep runs its betas in turn
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny,
            "src": os.path.join(root, "src"), "trace": False,
            "setup_only": True}
    serial = itertools.count()

    def child(**changes):
        cwd = os.path.join(work, f"call{next(serial)}")
        return run_child(dict(spec, **changes), cwd, env, deadline)

    child()  # warm-up, not counted: brings the libraries into the page cache
    calls = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and bool(calls)
        t0 = time.monotonic()
        calls.append(dict(child(setup_only=False, trace=traced),
                          traced=traced))
        took = time.monotonic() - t0
        if args.trace and not traced:
            continue  # the untraced reference is not the measurement
        if time.monotonic() - start + took > args.seconds:
            break
    setups = list(calls)
    if not args.trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(child())
    return calls, [(r["setup_s"], r["setup_s"] * REF_S / r["ref_s"][0])
                   for r in setups]


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="coarse, short inputs for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nslag", "__init__.py")):
        print("perfbench: no nslag source at ./src/nslag; run from the "
              "repository root", file=sys.stderr)
        return 2
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        try:
            calls, setups = measure(args, root, work)
        except ChildFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = gate(args.workload, args.tiny, calls)
    if args.trace:
        metrics = per_layer(calls[0], [c for c in calls if c["traced"]])
    else:
        metrics = end_to_end(calls, [scaled for _, scaled in setups])
    _, inputs = workloads.config_keys(args.workload, args.seed, args.tiny)
    detail = {
        "workload": args.workload,
        "tiny": args.tiny,
        "inputs": inputs,
        "provenance": provenance(root, args.seed),
        "gate": problems or "pass",
        "setup_s_raw": [raw for raw, _ in setups],
        "calls": [{k: c.get(k) for k in ("traced", "wall_s", "ref_s",
                                          "n_steps", "peak_rss_mb",
                                          "series_sha256", "error")}
                  | {"speed": speed(c),
                     "probe_slices": len(c.get("probe_s", ())),
                     "failed_verdicts": sorted(
                      k for k, v in c["verdicts"].items() if not v)}
                  for c in calls],
    }
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(calls),
        "failed": sum(1 for c in calls if c["error"]),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
