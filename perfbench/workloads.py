"""The benchmark's workloads: which nslag call each one times, on what input.

A workload is a flat nslag config (the keys of an `nslag` config file) plus
the kind of call.  Seed 0 gives the configs below exactly; another seed
jitters the bump's center and amplitudes (`bump_inputs`).  `check` runs the
acceptance suite on its fixed default config and ignores the seed.

Each workload also names the verdicts (or criteria) it evaluates and which
of them are red at the commit that defined the benchmark.  The gate in
`run.py` requires every other one to pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# verdicts of one run_simulation report, and criteria of `nslag check`
RUN_VERDICTS = ("energy_inequality", "jensen_band", "representation",
                "y_slope", "decay_u", "decay_grad", "positivity",
                "stabilization", "plateaus", "farfield")
CRITERIA = ("c01_equilibrium", "c02_mms_orders", "c03_energy_inequality",
            "c04_bound_stabilization", "c05_norm_decay", "c06_jensen_band",
            "c07_representation", "c08_y_decay", "c09_integrability_plateaus",
            "c10_oracle_agreement", "c11_farfield_fidelity")


@dataclass(frozen=True)
class Workload:
    kind: str           # "run": harness.run_simulation; "check": cli.main
    keys: dict          # config keys on top of the defaults
    known_red: tuple    # verdicts or criteria that fail at the baseline

    @property
    def verdicts(self):
        return CRITERIA if self.kind == "check" else RUN_VERDICTS


# why each workload exists: README.md
WORKLOADS = {
    "bump_default": Workload("run", {}, ("farfield",)),
    "bump_fine": Workload("run", {"grid.cells": 8000, "run.t_final": 10.0},
                          ()),
    "sample_dense": Workload("run", {"grid.cells": 500, "run.sample_dt": 0.01},
                             ("farfield",)),
    "check": Workload("check", {}, ("c11_farfield_fidelity",)),
}

# The smoke test runs every workload on a coarse, short trajectory.  At
# h = 0.5 the energy inequality's first-order margin exceeds c03's
# allowance, so it is red there too.
TINY_KEYS = {"grid.cells": 100, "run.t_final": 20.0}
TINY_KNOWN_RED = {"run": ("energy_inequality", "farfield"),
                  "check": ("c03_energy_inequality", "c11_farfield_fidelity")}

# bump defaults (RunConfig) and the jitter other seeds draw around them;
# every draw stays well inside what ICSpec admits (|amp| <= 0.9, support
# inside half the domain)
BUMP_CENTER = 6.0
BUMP_AMP = 0.3
CENTER_JITTER = 0.5
AMP_JITTER = 0.05


def bump_inputs(seed):
    """Config keys for the bump's center and amplitudes drawn from seed."""
    if seed == 0:
        return {}
    rng = random.Random(seed)
    return {
        "ic.center": BUMP_CENTER + rng.uniform(-CENTER_JITTER, CENTER_JITTER),
        "ic.amp_v": BUMP_AMP + rng.uniform(-AMP_JITTER, AMP_JITTER),
        "ic.amp_u": BUMP_AMP + rng.uniform(-AMP_JITTER, AMP_JITTER),
        "ic.amp_theta": BUMP_AMP + rng.uniform(-AMP_JITTER, AMP_JITTER),
    }


def config_keys(name, seed, tiny=False):
    """(flat config keys, seeded inputs drawn) for one workload call."""
    wl = WORKLOADS[name]
    keys = dict(wl.keys)
    if tiny:
        keys.update(TINY_KEYS)
    drawn = {} if wl.kind == "check" else bump_inputs(seed)
    keys.update(drawn)
    return keys, drawn


def known_red(name, tiny=False):
    wl = WORKLOADS[name]
    return TINY_KNOWN_RED[wl.kind] if tiny else wl.known_red
