"""One workload call in a fresh process; run.py starts it.

    python3 child.py '<json spec>'      (cwd: an empty work directory)

The spec names the workload, seed, nslag source directory, whether to trace,
and whether to stop after set-up.  Set-up is timed first: importing nslag,
building the config, grid and initial data, and solving the entropy roots.
The workload call then runs with its series and reports written to the
current directory, and the outcome goes to result.json there.

The reference kernel is timed after set-up, and after a traced call.  Its
time tracks the machine's speed at that moment; run.py uses it to convert
set-up times and traced calls' times to a fixed reference speed.  An
untraced call instead carries a speed probe: every PROBE_EVERY_S, at the
start of a step, it times a short slice of the same kernel.  The slices
follow the machine's speed through the call, and their time is taken out
of the call's wall time.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os
import resource
import sys
import time

import workloads
from spans import Tracer


def set_up(spec):
    """Import nslag and build the workload's inputs.

    Returns (modules, cfg, seconds taken).
    """
    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import nslag  # noqa: F401
    from nslag import cli, core, diagnostics, harness, stepper

    keys, _ = workloads.config_keys(spec["workload"], spec["seed"],
                                    spec["tiny"])
    cfg = harness.config_from_dict(keys)
    grid = core.build_grid(cfg.length, cfg.n_cells)
    state = core.make_initial_data(grid, cfg.ic)
    diagnostics.entropy_roots(
        diagnostics.energy_functional(state, grid, cfg.params))
    seconds = time.perf_counter() - t0
    return {"cli": cli, "harness": harness, "stepper": stepper}, cfg, seconds


REF_ITERATIONS = 25_000
PROBE_ITERATIONS = 500      # one probe slice: 1/50 of the reference kernel
PROBE_EVERY_S = 0.1


def reference_seconds(iterations=REF_ITERATIONS):
    """Time a fixed mix of small-array numpy calls and interpreter work.

    The mix resembles nslag's own (ufuncs on ~2000 values driven from a
    Python loop), so a slower machine slows both alike.  It never changes
    with nslag.
    """
    import numpy as np

    x = np.linspace(0.5, 1.5, 2001)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(iterations):
        y = np.sqrt(x * 1.0001) + np.log(x)
        acc += float(y.max()) - float(np.sum(y)) * 1e-6
        x = np.minimum(x, 2.0)
    return time.perf_counter() - t0


class SpeedProbe:
    """Times a kernel slice at the first step after every PROBE_EVERY_S.

    step_imex is wrapped at both names its callers look up: the stepping
    loop finds it in `nslag.stepper`, c01 and the MMS study in
    `nslag.harness`.  `slices` holds each slice's kernel time and
    `spent` the wall time the probe took in all.
    """

    def __init__(self, modules):
        self.slices = []
        self.spent = 0.0
        self._due = 0.0
        clock = time.perf_counter
        step_imex = modules["stepper"].step_imex

        @functools.wraps(step_imex)
        def probed(*args, **kwargs):
            t0 = clock()
            if t0 >= self._due:
                self.slices.append(reference_seconds(PROBE_ITERATIONS))
                t1 = clock()
                self.spent += t1 - t0
                self._due = t1 + PROBE_EVERY_S
            return step_imex(*args, **kwargs)

        modules["stepper"].step_imex = probed
        modules["harness"].step_imex = probed


def call_run(modules, cfg):
    harness, stepper = modules["harness"], modules["stepper"]
    t0 = time.perf_counter()
    try:
        report = harness.run_simulation(cfg)
    except stepper.StepFailure as exc:
        # a failed trajectory fails every verdict of its run
        return time.perf_counter() - t0, None, {}, f"StepFailure: {exc}"
    wall = time.perf_counter() - t0
    verdicts = {k: v["pass"] for k, v in report.verdicts.items()}
    return wall, report.n_steps, verdicts, None


def call_check(modules, cfg, tiny):
    harness, cli = modules["harness"], modules["cli"]
    argv = ["check", "--out", "acceptance.json"]
    if tiny:
        harness.write_config(cfg, "tiny.cfg")
        argv += ["--config", "tiny.cfg"]
    t0 = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - t0
    if code not in (0, 1) or not os.path.exists("acceptance.json"):
        return wall, None, {}, f"nslag check exited with {code}"
    with open("acceptance.json", encoding="utf-8") as fh:
        criteria = json.load(fh)["criteria"]
    verdicts = {k: v["pass"] for k, v in criteria.items()}
    # trajectories the suite ran: the sweep and the equilibrium run
    steps = sum(report["n_steps"] for report in _reports())
    return wall, steps, verdicts, None


def _reports():
    for path in sorted(glob.glob("report*.json")):
        with open(path, encoding="utf-8") as fh:
            yield json.load(fh)


def _series():
    """{csv name: (sha256, bytes, rows)} for every series this call wrote."""
    out = {}
    for path in sorted(glob.glob("*.csv")):
        with open(path, "rb") as fh:
            data = fh.read()
        out[path] = (hashlib.sha256(data).hexdigest(), len(data),
                     data.count(b"\n") - 1)
    return out


def file_layers(kind, series):
    """Per-layer figures read from the files the call left behind."""
    out = {
        "harness.rows": sum(rows for _, _, rows in series.values()),
        "harness.series_bytes": sum(size for _, size, _ in series.values()),
        "harness.sweep.run_s_sum": 0.0,
    }
    criteria = {}
    if kind == "check":
        with open("acceptance.json", encoding="utf-8") as fh:
            criteria = json.load(fh)["criteria"]
        out["harness.sweep.run_s_sum"] = sum(
            r["wall_seconds"] for r in _reports()
            if r["config"]["out.report"].startswith("report_beta"))
    for num, name in enumerate(workloads.CRITERIA, start=1):
        seconds = criteria[name]["seconds"] if name in criteria else 0.0
        out[f"harness.criterion.c{num:02d}.s"] = seconds
    return out


def main():
    spec = json.loads(sys.argv[1])
    modules, cfg, setup_s = set_up(spec)
    result = {"setup_s": setup_s, "ref_s": [reference_seconds()]}
    if not spec["setup_only"]:
        kind = workloads.WORKLOADS[spec["workload"]].kind
        tracer = probe = None
        if spec["trace"]:
            tracer = Tracer()
            tracer.install(modules)
        else:
            probe = SpeedProbe(modules)
        if kind == "check":
            wall, steps, verdicts, error = call_check(modules, cfg,
                                                      spec["tiny"])
        else:
            wall, steps, verdicts, error = call_run(modules, cfg)
        series = _series()
        if probe is not None:
            wall -= probe.spent
            result["probe_s"] = probe.slices
        else:
            result["ref_s"].append(reference_seconds())
        result.update(
            wall_s=wall, n_steps=steps, verdicts=verdicts, error=error,
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            series_sha256={k: v[0] for k, v in series.items()})
        if tracer is not None and error is None:
            layers = tracer.layer_metrics(wall)
            layers.update(file_layers(kind, series))
            layers["harness.sweep.utilisation"] = _utilisation(layers)
            result["layers"] = layers
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _utilisation(layers):
    # busy share of the sweep: its runs' own time over workers x sweep wall,
    # with min(3 runs, NSLAG_THREADS) workers as nslag sizes its pool
    sweep_s = layers["harness.sweep.s"]
    if not sweep_s:
        return 0.0
    workers = min(3, int(os.environ["NSLAG_THREADS"]))
    return layers["harness.sweep.run_s_sum"] / (workers * sweep_s)


if __name__ == "__main__":
    main()
