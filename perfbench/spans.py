"""Span tracing of nslag's public calls, installed from outside the package.

Each wrapped call records one span: name, start, end, parent span, the
process it ran in, and whether it returned normally.  Spans stay in memory
until the workload ends; `layer_metrics` turns them into the per-layer
figures.  Functions are wrapped at the module attribute their caller looks
up (step_imex finds `solve_tridiagonal` in `nslag.stepper`, the run loop
finds `sample_energy` in `nslag.harness`), so nothing in `src/nslag` is
edited.  The benchmark runs `check`'s sweep in-process (NSLAG_THREADS=1),
so every span is recorded in the one process.
"""

from __future__ import annotations

import functools
import time
from array import array

# (span name, [(module, attribute), ...]): one wrapper per function, bound
# to every name a caller looks it up by
TARGETS = (
    ("stepper.solve_tridiagonal",
     [("stepper", "solve_tridiagonal"), ("harness", "solve_tridiagonal")]),
    ("stepper.step_imex",
     [("stepper", "step_imex"), ("harness", "step_imex")]),
    ("stepper.stable_dt",
     [("stepper", "stable_dt"), ("harness", "stable_dt")]),
    ("stepper.advance", [("harness", "advance")]),
    ("model.mms_source", [("stepper", "mms_source")]),
    ("diagnostics.sample_energy", [("harness", "sample_energy")]),
    ("diagnostics.sample_bounds", [("harness", "sample_bounds")]),
    ("diagnostics.update_repr_probe", [("harness", "update_repr_probe")]),
    ("diagnostics.unit_interval_averages",
     [("harness", "unit_interval_averages")]),
    ("diagnostics.reconstruct_v", [("harness", "reconstruct_v")]),
    ("diagnostics.decay_report", [("harness", "decay_report")]),
    ("diagnostics.entropy_roots", [("harness", "entropy_roots")]),
    ("core.make_initial_data", [("harness", "make_initial_data")]),
    ("harness.run_simulation", [("harness", "run_simulation")]),
    ("harness.read_series", [("harness", "read_series")]),
    ("harness.acceptance_suite", [("cli", "acceptance_suite")]),
    ("cli.main", [("cli", "main")]),
    ("harness.sweep", [("harness", "sweep")]),
)

# fields of a span record; records are stored back to back in one float
# array, which the garbage collector never scans
NAME, START, END, PARENT, OK = range(5)
WIDTH = 5


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names = []
        self.spans = array("d")
        self._open = [-1]   # stack of open span indices

    def __len__(self):
        return len(self.spans) // WIDTH

    def records(self):
        s = self.spans
        return [s[i:i + WIDTH] for i in range(0, len(s), WIDTH)]

    def wrap(self, name, fn):
        key = float(len(self.names))
        self.names.append(name)
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            at = len(spans)
            open_.append(at // WIDTH)
            spans.extend((key, 0.0, 0.0, open_[-2], 0.0))
            spans[at + START] = clock()
            try:
                out = fn(*args, **kwargs)
                spans[at + OK] = 1.0
                return out
            finally:
                spans[at + END] = clock()
                open_.pop()

        return traced

    def install(self, modules):
        """Wrap every target; `modules` maps short names to nslag modules."""
        for name, sites in TARGETS:
            mod, attr = sites[0]
            wrapped = self.wrap(name, getattr(modules[mod], attr))
            for mod, attr in sites:
                setattr(modules[mod], attr, wrapped)

    def totals(self, recs):
        """{name: [calls, ok calls, total s, self s]}."""
        child = [0.0] * len(recs)
        for rec in recs:
            p = int(rec[PARENT])
            if p >= 0:
                child[p] += rec[END] - rec[START]
        out = {name: [0, 0, 0.0, 0.0] for name in self.names}
        for rec, inner in zip(recs, child):
            agg = out[self.names[int(rec[NAME])]]
            dur = rec[END] - rec[START]
            agg[0] += 1
            agg[1] += int(rec[OK])
            agg[2] += dur
            agg[3] += dur - inner
        return out

    def accepted_in_advance(self, recs):
        """Accepted steps taken inside the adaptive stepping loop (advance)."""
        imex = self.names.index("stepper.step_imex")
        adv = self.names.index("stepper.advance")
        return sum(1 for r in recs if r[NAME] == imex and r[OK]
                   and r[PARENT] >= 0 and recs[int(r[PARENT])][NAME] == adv)

    def layer_metrics(self, wall_s):
        """Per-layer figures of one workload call that took wall_s."""
        recs = self.records()
        t = self.totals(recs)

        def us(name, field=2, per=None):
            n = t[name][0] if per is None else per
            return t[name][field] / n * 1e6 if n else 0.0

        def self_share(prefix):
            return sum(v[3] for k, v in t.items()
                       if k.startswith(prefix)) / wall_s

        imex = t["stepper.step_imex"]
        steps = t["diagnostics.update_repr_probe"][0]   # run-loop steps
        rows = t["diagnostics.reconstruct_v"][0]         # series rows
        per_step = sum(t[f"diagnostics.{n}"][2] for n in
                       ("sample_energy", "sample_bounds", "update_repr_probe"))
        per_sample = sum(t[f"diagnostics.{n}"][2] for n in
                         ("unit_interval_averages", "reconstruct_v"))
        return {
            "stepper.solve_tridiagonal.us": us("stepper.solve_tridiagonal"),
            "stepper.solve_tridiagonal.calls":
                t["stepper.solve_tridiagonal"][0],
            "stepper.step_imex.us": us("stepper.step_imex"),
            "stepper.step_imex.self_us": us("stepper.step_imex", 3),
            "stepper.stable_dt.us": us("stepper.stable_dt"),
            "stepper.advance.self_us":
                us("stepper.advance", 3, self.accepted_in_advance(recs)),
            "stepper.accepted_steps": imex[1],
            "stepper.rejected_steps": imex[0] - imex[1],
            "stepper.share": self_share("stepper."),
            "diagnostics.per_step_us":
                per_step / steps * 1e6 if steps else 0.0,
            "diagnostics.sample_energy.us": us("diagnostics.sample_energy"),
            "diagnostics.sample_bounds.us": us("diagnostics.sample_bounds"),
            "diagnostics.update_repr_probe.us":
                us("diagnostics.update_repr_probe"),
            "diagnostics.per_sample_us":
                per_sample / rows * 1e6 if rows else 0.0,
            "diagnostics.unit_interval_averages.us":
                us("diagnostics.unit_interval_averages"),
            "diagnostics.reconstruct_v.us": us("diagnostics.reconstruct_v"),
            "diagnostics.decay_report.s": t["diagnostics.decay_report"][2],
            "diagnostics.entropy_roots.s": t["diagnostics.entropy_roots"][2],
            "diagnostics.share": self_share("diagnostics."),
            "harness.run_simulation.self_us":
                us("harness.run_simulation", 3, rows),
            "harness.read_series.s": t["harness.read_series"][2],
            "harness.sweep.s": t["harness.sweep"][2],
            "model.mms_source.us": us("model.mms_source"),
            "model.mms_source.calls": t["model.mms_source"][0],
            "core.make_initial_data.s": t["core.make_initial_data"][2],
            "cli.main.self_s": t["cli.main"][3],
            "trace.spans": len(self),
        }
