"""Run orchestration: config files, series output, reports, verification.

Configs are flat "key = value" text.  Time series go to CSV with a fixed
23-column schema, verdicts to JSON.  The acceptance suite bundles the
standing checks: equilibrium preservation, manufactured-solution
convergence orders, the long bump runs across the conductivity exponents,
and solver/quadrature cross-checks.
"""

from __future__ import annotations

import math
import os
import time
from array import array
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from itertools import chain
from operator import attrgetter

import numpy as np

from .core import (ConfigError, ICSpec, Params, State, build_grid,
                   equilibrium_state, make_initial_data)
from .diagnostics import (MAX_SAMPLES, MIN_SAMPLES, _ratio, decay_report,
                          dissipation_functional, energy_functional,
                          entropy_roots, make_repr_probe, reconstruct_v,
                          running_integrals, sample_bounds, sample_energy,
                          unit_interval_averages, update_repr_probe)
from .model import MmsProfile
from .stepper import (DT_MIN, StepFailure, advance, solve_tridiagonal,
                      stable_dt, step_imex)

SERIES_HEADER = ("t,E,V,cumV,vmin,vmax,thmin,thmax,n2_vm1,n2_u,n2_thm1,"
                 "ninf_vm1,ninf_u,ninf_thm1,g2_vx,g2_ux,g2_thx,pospart,"
                 "cum_ux2,cum_pospart,Y_probe,repr_relerr,farfield_dev")
SERIES_COLUMNS = SERIES_HEADER.split(",")

# the one source of every verdict's limit: run reports and the acceptance
# suite read it when they judge
THRESHOLDS = {
    "energy_margin_rel": 0.02,    # margin allowance as a fraction of E(0)
    "energy_margin_abs": 1e-6,
    "jensen_slack": 0.05,         # allowed excursion beyond [alpha1, alpha2]
    "root_residual": 1e-12,
    "repr_tol": 0.05,
    "repr_tol_equilibrium": 1e-8,
    "uinf_ratio": 0.1,
    "grad_ratio": 0.2,
    "drift_tol": 0.05,
    "plateau_frac": 0.20,
    "farfield_tol": 1e-4,
    "equilibrium_dev": 1e-10,
    "equilibrium_seconds": 5.0,   # c01's bare steps take less than this
    "run_seconds": 120.0,         # each sweep run takes at most this
    "yslope_eq_tol": 1e-6,
    "tridiag_tol": 1e-10,
    "quad_tol": 1e-12,
    "spatial_order": (1.8, 2.2),
    "temporal_order": (0.8, 1.2),
}


@dataclass
class RunConfig:
    """Full description of one simulation run."""

    params: Params = field(default_factory=Params)
    length: float = 50.0
    n_cells: int = 2000
    far_length: float = 225.0           # graded far zone out to here
    ic: ICSpec = field(default_factory=lambda: ICSpec(
        kind="bump", amp_v=0.3, amp_u=0.3, amp_theta=0.3,
        center=6.0, width=1.0))
    t_final: float = 100.0
    sample_dt: float = 0.5
    series_path: str = "series.csv"
    report_path: str = "report.json"

    def outputs(self):
        """{config key or name: path} of every file the run may write."""
        return {"out.series": self.series_path, "out.report": self.report_path,
                "failure snapshot": self.report_path + ".failed_state.txt"}


# config key -> (RunConfig attribute path, type), in report and file order;
# the defaults are RunConfig's
CONFIG_KEYS = {
    "physics.beta": ("params.beta", float),
    "physics.mu": ("params.mu", float),
    "physics.kappa": ("params.kappa", float),
    "physics.R": ("params.R", float),
    "physics.cv": ("params.cv", float),
    "grid.length": ("length", float),
    "grid.cells": ("n_cells", int),
    "grid.far_length": ("far_length", float),
    "ic.kind": ("ic.kind", str),
    "ic.amp_v": ("ic.amp_v", float),
    "ic.amp_u": ("ic.amp_u", float),
    "ic.amp_theta": ("ic.amp_theta", float),
    "ic.center": ("ic.center", float),
    "ic.width": ("ic.width", float),
    "run.t_final": ("t_final", float),
    "run.sample_dt": ("sample_dt", float),
    "out.series": ("series_path", str),
    "out.report": ("report_path", str),
}


def check_outputs(outputs, config_path=None):
    """Raise ConfigError unless each (config key or flag, path) of outputs,
    all the files one command may write, names a file, has an existing
    directory, is not a directory and names no file an earlier one names,
    or the command's --config file config_path when given, however
    spelled."""
    named = {}
    if config_path is not None:
        named[os.path.realpath(config_path)] = f"--config = {config_path}"
    for name, path in outputs:
        if not path:
            raise ConfigError(f"{name} = {path!r}: names no file")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"{name} = {path}: its directory does not exist")
        if os.path.isdir(path):
            raise ConfigError(f"{name} = {path}: is a directory")
        real = os.path.realpath(path)
        if real in named:
            raise ConfigError(f"{named[real]} and {name} = {path} name one file")
        named[real] = f"{name} = {path}"


@contextmanager
def _naming(what):
    """Prefix what to the message of a ConfigError raised inside."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _set_up(cfg):
    """Check every run-level rule of cfg, touching no file; return the run's
    grid, its initial state and the entropy band of E(0)."""
    if not 0.0 < cfg.t_final < math.inf:
        raise ConfigError(f"run.t_final must be positive and finite, got {cfg.t_final}")
    if not (cfg.sample_dt > 0.0 and cfg.t_final / cfg.sample_dt < math.inf):
        raise ConfigError(f"run.sample_dt must be positive and run.t_final / "
                          f"run.sample_dt finite, got {cfg.sample_dt}")
    n, shortest, _ = _sample_times(cfg.t_final, cfg.sample_dt)
    if not MIN_SAMPLES <= n <= MAX_SAMPLES:
        raise ConfigError(
            f"run.sample_dt = {cfg.sample_dt} gives {n} samples over "
            f"run.t_final = {cfg.t_final}; " + (
                f"the decay report needs at least {MIN_SAMPLES}"
                if n < MIN_SAMPLES else f"a run takes at most {MAX_SAMPLES}"))
    if shortest < DT_MIN:
        raise ConfigError(
            f"run.sample_dt = {cfg.sample_dt} over run.t_final = "
            f"{cfg.t_final} leaves a sample interval of {shortest}, below "
            f"DT_MIN = {DT_MIN}")
    with _naming(f"grid.length = {cfg.length}, grid.cells = {cfg.n_cells}, "
                 f"grid.far_length = {cfg.far_length}"):
        grid = build_grid(cfg.length, cfg.n_cells, cfg.far_length)
        grid.unit_cells
    state = make_initial_data(grid, cfg.ic)
    # the probe's [floor(L/4), floor(L/4) + 1] lies in [1, L - 1] iff L >= 4
    if not cfg.length >= 4.0:
        raise ConfigError(
            f"grid.length = {cfg.length}: the probe interval [floor(L/4), "
            f"floor(L/4) + 1] must keep one mass unit of clearance inside "
            f"(0, L), so L must be at least 4")
    if stable_dt(state, grid, cfg.params) <= DT_MIN:
        raise ConfigError(
            f"physics.R = {cfg.params.R}, physics.cv = {cfg.params.cv}: the "
            f"initial acoustic step is at most DT_MIN = {DT_MIN}")
    with _naming("initial data"):
        band = entropy_roots(energy_functional(state, grid, cfg.params))
    return grid, state, band


def config_from_dict(values):
    """Build a RunConfig from {config key: typed value}, one key at a time,
    so an error names its key.  Checks values only: the command that makes
    a run sets it up and checks its files before its first run."""
    cfg = RunConfig()
    for key, value in values.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        section, _, attr = CONFIG_KEYS[key][0].rpartition(".")
        with _naming(f"{key} = {value}"):
            if section:   # Params checks itself here
                value = replace(getattr(cfg, section), **{attr: value})
            cfg = replace(cfg, **{section or attr: value})
    return cfg


def load_config(path):
    """Parse a flat key = value config file into config_from_dict; a file
    that cannot be read, unknown or repeated keys, a '#' in a value (a
    comment takes a line of its own) and values of the wrong type are
    rejected.  A leading UTF-8 byte-order mark is skipped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                          f"{exc.start})") from None
    values, lines = {}, {}
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} "
                              f"already given at line {lines[key]}")
        if "#" in text:
            raise ConfigError(f"{path}:{lineno}: '#' in the value of {key}: "
                              f"a comment takes a line of its own")
        lines[key] = lineno
        typ = CONFIG_KEYS[key][1]
        if typ is str and len(text) >= 2 and text[0] == text[-1] \
                and text[0] in "'\"":
            text = text[1:-1]
        try:
            values[key] = typ(text)
        except ValueError as exc:
            raise ConfigError(
                f"{path}:{lineno}: bad value for {key}: {text!r}") from exc
    return config_from_dict(values)


def config_to_dict(cfg):
    """Flat {config key: value} view of a RunConfig."""
    return {key: attrgetter(path)(cfg) for key, (path, _) in CONFIG_KEYS.items()}


def write_config(cfg, path):
    """Write every config key explicitly, in double quotes a string that
    load_config would strip or unquote.  load_config reads the file back
    to cfg unless a path holds a '#', which it refuses."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in config_to_dict(cfg).items():
            if isinstance(value, str) and (value.strip() != value or (
                    value[:1] in ("'", '"') and value[-1:] == value[:1])):
                value = f'"{value}"'
            fh.write(f"{key} = {value}\n")


def write_json(obj, path):
    """Write obj to path as JSON indented by two, with a final newline."""
    import json   # on first use: importing nslag.harness does not load it

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def _fmt(x):
    return repr(float(x))


def _series_writer(fh):
    """Write the series header to fh; return a function writing one row.

    A row is the schema columns' values in order; floats are written in
    shortest round-trip form, and each row is flushed as it is written.
    """
    fh.write(SERIES_HEADER + "\n")

    def write_row(values):
        fh.write(",".join(map(_fmt, values)) + "\n")
        fh.flush()

    return write_row


def read_series(path):
    """Parse a series CSV back into a list of row dicts."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != SERIES_HEADER:
            raise ConfigError(f"{path}: unexpected series header")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != len(SERIES_COLUMNS):
                raise ConfigError(f"{path}:{lineno}: {len(parts)} fields, "
                                  f"the header has {len(SERIES_COLUMNS)}")
            rows.append({c: float(x) for c, x in zip(SERIES_COLUMNS, parts)})
    return rows


def write_snapshot(s, grid, path):
    """One text block per field with coordinate and value columns."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, xs, arr in (("v", grid.centers(), s.v),
                              ("u", grid.faces(), s.u),
                              ("theta", grid.centers(), s.theta)):
            fh.write(f"# field {name} at t = {_fmt(s.t)}\n")
            for x, val in zip(xs, arr):
                fh.write(f"{_fmt(x)} {_fmt(val)}\n")
            fh.write("\n")


@dataclass
class RunReport:
    """Per-run verdicts, each with its measured value and threshold."""

    config: dict
    verdicts: dict
    decay: dict
    e0: float
    alpha1: float
    alpha2: float
    n_steps: int
    wall_seconds: float

    @property
    def all_pass(self):
        return all(v["pass"] for v in self.verdicts.values())

    def to_dict(self):
        return {**asdict(self), "all_pass": self.all_pass}


def _verdict(passed, measured, threshold):
    return {"pass": bool(passed), "measured": measured, "threshold": threshold}


def _at_most(measured, limit):
    return _verdict(measured <= limit, measured, limit)


def _ratio_at_most(ratio, limit):
    # a ratio from diagnostics._ratio; of its labels only "identically
    # zero" passes
    if isinstance(ratio, str):
        return _verdict(ratio == "identically zero", ratio, limit)
    return _at_most(ratio, limit)


def _run_verdicts(band, decay, series, avg_min, avg_max):
    """The ten run verdicts in report order, each with pass, measured value
    and threshold.

    band is the entropy band of E(0), decay the decay_report of the run,
    series its {column name: float column}, avg_min and avg_max the
    extremes of its unit-interval averages.  The limits are THRESHOLDS'.
    """
    thr = THRESHOLDS
    slack = thr["jensen_slack"]
    excursion = max(band.alpha1 - slack - avg_min,
                    avg_max - band.alpha2 - slack)
    # combined L2 norm of the three gradients, first and last sample
    g_first, g_last = (math.sqrt(sum(series[c][k] ** 2 for c in (
        "g2_vx", "g2_ux", "g2_thx"))) for k in (0, -1))
    slope = decay["y_slope"]
    min_field = min(min(series["vmin"]), min(series["thmin"]))
    return {
        "energy_inequality": _at_most(
            decay["energy_margin"],
            thr["energy_margin_rel"] * band.e0 + thr["energy_margin_abs"]),
        "jensen_band": {**_at_most(excursion, 0.0), "note":
                        f"alpha1 = {band.alpha1}, alpha2 = {band.alpha2}"},
        "representation": _at_most(max(series["repr_relerr"]),
                                   thr["repr_tol"]),
        "y_slope": _verdict(slope < 0.0, slope, 0.0),
        "decay_u": _ratio_at_most(decay["ratios"]["ninf_u"],
                                  thr["uinf_ratio"]),
        "decay_grad": _ratio_at_most(_ratio(g_first, g_last),
                                     thr["grad_ratio"]),
        "positivity": _verdict(min_field > 0.0, min_field, 0.0),
        "stabilization": _at_most(max(decay["extremum_drift"].values()),
                                  thr["drift_tol"]),
        "plateaus": _at_most(max(decay["plateau"].values()),
                             thr["plateau_frac"]),
        "farfield": _at_most(max(series["farfield_dev"]),
                             thr["farfield_tol"]),
    }


class _RunAccumulator:
    """Diagnostics state threaded through advance as its on_step.

    Every step advances the probe and the running integrals, on the strain
    rate the new state carries.  At sample times record() joins the
    running integrals' columns the last step computed to those of
    sample_energy, sample_bounds and reconstruct_v at the state, appends
    the row to series (a float column per schema column) and writes it.
    """

    def __init__(self, state0, grid, params, write_row):
        self.grid = grid
        self.params = params
        self.write_row = write_row
        self.running = running_integrals(state0, grid, params)
        # on [floor(L/4), floor(L/4) + 1], inside (0, L) as _set_up checks
        self.probe = make_repr_probe(state0, grid, params, grid.length // 4)
        self.n_steps = 0
        self.series = {c: array("d") for c in SERIES_COLUMNS}
        self.avg_min, self.avg_max = math.inf, -math.inf

    def __call__(self, prev, new, dt):
        self.n_steps += 1
        self.running = running_integrals(new, self.grid, self.params,
                                         self.running)
        update_repr_probe(self.probe, new, dt, self.grid, self.params)

    def record(self, state):
        """Sample the state the last step reached and write its row."""
        averages = unit_interval_averages(state, self.grid).ravel()
        self.avg_min = min(self.avg_min, float(averages[averages.argmin()]))
        self.avg_max = max(self.avg_max, float(averages[averages.argmax()]))
        row = {**self.running,
               **sample_energy(state, self.grid, self.params),
               **sample_bounds(state, self.grid),
               **reconstruct_v(self.probe, state, self.params)}
        values = [row[c] for c in SERIES_COLUMNS]
        for column, x in zip(self.series.values(), values):
            column.append(x)
        self.write_row(values)


def _sample_times(t_final, sample_dt):
    """The number of samples, the one at t = 0 included, the shortest
    interval between two, and an iterator over the times of the others:
    the multiples of sample_dt below t_final, then t_final.  A multiple
    within 1e-9 intervals of t_final, on either side, is not taken."""
    m = max(math.ceil(t_final / sample_dt - 1e-9), 1)   # intervals
    last = t_final - (m - 1) * sample_dt
    return (m + 1, min(sample_dt, last) if m > 1 else last,
            chain((k * sample_dt for k in range(1, m)), (t_final,)))


def run_simulation(cfg, config_path=None):
    """Run one configured trajectory: check_runs, then _run; no output may
    be the config file config_path when given."""
    return _run(*check_runs([cfg], None, config_path)[0])


def _run(cfg, grid, state, band):
    """Step a run check_runs set up and evaluate every standing verdict.

    Samples diagnostics on the sample_dt cadence (running integrals and
    the probe advance every step), streams the series CSV, writes the JSON
    report and returns the RunReport, whose wall_seconds leave the set-up
    out.  A stepper failure is raised again, naming the snapshot of its
    last good state, once that state is written next to the report.
    """
    wall0 = time.perf_counter()
    params = cfg.params
    with open(cfg.series_path, "w", encoding="utf-8") as fh:
        acc = _RunAccumulator(state, grid, params, _series_writer(fh))
        acc.record(state)
        *_, times = _sample_times(cfg.t_final, cfg.sample_dt)
        for t_next in times:
            try:
                state = advance(state, t_next, grid, params, on_step=acc)
            except StepFailure as exc:
                path = cfg.outputs()["failure snapshot"]
                write_snapshot(exc.state, grid, path)
                raise StepFailure(f"{exc}; state -> {path}", exc.state) \
                    from exc
            acc.record(state)

    decay = decay_report(acc.series, logy=(acc.probe.logY_t, acc.probe.logY))
    report = RunReport(
        config=config_to_dict(cfg),
        verdicts=_run_verdicts(band, decay, acc.series, acc.avg_min,
                               acc.avg_max),
        decay=decay,
        e0=band.e0,
        alpha1=band.alpha1,
        alpha2=band.alpha2,
        n_steps=acc.n_steps,
        wall_seconds=time.perf_counter() - wall0,
    )
    write_json(report.to_dict(), cfg.report_path)
    return report


def _l2_distance(a, b, grid):
    # combined L2 distance of two states: cells weigh h_j, faces their
    # control mass (trapezoid)
    dv = a.v - b.v
    du = a.u - b.u
    dth = a.theta - b.theta
    return math.sqrt(float(np.sum(grid.dx * dv * dv))
                     + float(np.sum(grid.dm * du * du))
                     + float(np.sum(grid.dx * dth * dth)))


def _mms_state(grid, prof, t):
    return State(t, np.asarray(prof.v_exact(grid.centers(), t)),
                 np.asarray(prof.theta_exact(grid.centers(), t)),
                 np.asarray(prof.u_exact(grid.faces(), t)))


def _mms_run(grid, dt):
    """MmsProfile() stepped from its exact state at t = 0 to t = 0.5 in
    steps of dt, the last one cut to land on 0.5."""
    prof, params, t_end = MmsProfile(), Params(), 0.5
    state = _mms_state(grid, prof, 0.0)
    while state.t < t_end:
        step = min(dt, t_end - state.t)
        hits = step >= t_end - state.t
        state = step_imex(state, step, grid, params, mms=prof)
        if hits:
            state.t = t_end
    return state


def _ratios_orders(errs):
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    return ratios, [math.log2(rho) for rho in ratios]


def mms_convergence():
    """c02's convergence study of MmsProfile() to t = 0.5.

    Spatial: 100, 200 and 400 cells at dt = 0.2 h^2, so the measured order
    isolates the second-order stencils.  Temporal: 800 cells, dt = 4e-3
    halved three times, successive runs compared pairwise (Richardson
    differences at one grid cancel the spatial error exactly), giving the
    first-order rate.
    """
    prof = MmsProfile()
    cells = [100, 200, 400]
    errors = []
    for n in cells:
        grid = build_grid(prof.length, n)
        state = _mms_run(grid, 0.2 * grid.h * grid.h)
        errors.append(_l2_distance(state, _mms_state(grid, prof, state.t),
                                   grid))
    sp_ratios, sp_orders = _ratios_orders(errors)

    n_t, dts = 800, [4e-3, 2e-3, 1e-3, 5e-4]
    grid_t = build_grid(prof.length, n_t)
    finals = [_mms_run(grid_t, dt) for dt in dts]
    diffs = [_l2_distance(a, b, grid_t)
             for a, b in zip(finals[:-1], finals[1:])]
    tm_ratios, tm_orders = _ratios_orders(diffs)

    return {
        "spatial": {"cells": cells, "errors": errors,
                    "ratios": sp_ratios, "orders": sp_orders},
        "temporal": {"cells": n_t, "dts": dts, "diffs": diffs,
                     "ratios": tm_ratios, "orders": tm_orders},
    }


def _keyed(cfg, tag, **changes):
    """cfg with changes, its series and report paths keyed by tag:
    series.csv becomes series_<tag>.csv."""
    keyed = {}
    for attr in ("series_path", "report_path"):
        root, ext = os.path.splitext(getattr(cfg, attr))
        keyed[attr] = f"{root}_{tag}{ext}"
    return replace(cfg, **changes, **keyed)


def sweep_configs(cfg, betas):
    """Each exponent's config, sorted by beta, its files tagged beta<b:g>;
    exponents that share a tag, or that Params refuses, are a ConfigError."""
    betas = sorted(set(float(b) for b in betas))
    for a, b in zip(betas, betas[1:]):
        if f"{a:g}" == f"{b:g}":
            raise ConfigError(f"--beta values {a!r} and {b!r} share the "
                              f"file tag beta{b:g}")
    with _naming("--beta"):
        return [_keyed(cfg, f"beta{b:g}", params=replace(cfg.params, beta=b))
                for b in betas]


def check_runs(configs, out_path, config_path):
    """Set every config up (_set_up), then check every file the runs and
    out_path, if given, write, none on the config file config_path
    (check_outputs); return each run's (cfg, grid, state, band)."""
    runs = [(c, *_set_up(c)) for c in configs]
    outputs = [pair for c in configs for pair in c.outputs().items()]
    check_outputs(outputs if out_path is None
                  else outputs + [("--out", out_path)], config_path)
    return runs


def sweep(runs, out_path=None):
    """Step check_runs' runs in turn, in this process; write {beta: report}
    to out_path if given.  Returns {beta: RunReport} in the runs' order."""
    reports = {run[0].params.beta: _run(*run) for run in runs}
    if out_path is not None:
        write_json({f"{b:g}": r.to_dict() for b, r in reports.items()},
                   out_path)
    return reports


# ---------------------------------------------------------------------------
# acceptance suite


def _fsum_quadrature(s, grid, params):
    # independent route: plain python loops over reversed index order with
    # compensated summation, no shared code with the vectorized evaluators;
    # face masses and center distances come from the cell widths here
    h = [float(w) for w in grid.dx]
    n = len(h)
    terms_e = []
    for i in range(n, -1, -1):
        dm = 0.5 * ((h[i - 1] if i > 0 else 0.0) + (h[i] if i < n else 0.0))
        terms_e.append(0.5 * dm * s.u[i] * s.u[i])
    for j in range(n - 1, -1, -1):
        terms_e.append(h[j] * (params.R * (s.v[j] - math.log(s.v[j]) - 1.0)
                               + params.cv * (s.theta[j] - math.log(s.theta[j]) - 1.0)))
    energy = math.fsum(terms_e)
    terms_v = []
    for j in range(n - 1, -1, -1):
        ux = (s.u[j + 1] - s.u[j]) / h[j]
        terms_v.append(h[j] * params.mu * ux * ux / (s.v[j] * s.theta[j]))
    for i in range(n - 1, 0, -1):
        tl, tr = s.theta[i - 1], s.theta[i]
        d = 0.5 * (h[i - 1] + h[i])
        c = params.kappa * (tl ** params.beta + tr ** params.beta) \
            / (d * (s.v[i - 1] + s.v[i]))
        terms_v.append(c * (tr - tl) * (tr - tl) / (tl * tr))
    dissipation = math.fsum(terms_v)
    return energy, dissipation


def _frozen_state(grid):
    rng = np.random.default_rng(2024)
    n = grid.n_cells
    v = 1.0 + 0.4 * np.sin(grid.centers()) + 0.05 * rng.standard_normal(n)
    theta = 1.2 + 0.3 * np.cos(2.0 * grid.centers()) \
        + 0.05 * rng.standard_normal(n)
    u = 0.2 * np.sin(3.0 * grid.faces()) + 0.02 * rng.standard_normal(n + 1)
    u[-1] = 0.0
    return State(0.0, v, theta, u)


# the suite's shared runs: the beta sweep and the equilibrium diagnostics run
_SUITE_BETAS = (0.5, 1.0, 2.5)
_EQ_RUN = {"n_cells": 500, "ic": ICSpec(kind="equilibrium"), "t_final": 10.0}


@dataclass
class _Suite:
    """What the criteria read besides THRESHOLDS: the shared runs, each
    stepped from its check_runs set-up (the beta sweep's, then the
    equilibrium run's) when a criterion first reads it."""

    set_ups: list

    @cached_property
    def runs(self):
        """{beta: RunReport} of the beta sweep."""
        return sweep(self.set_ups[:-1])

    @cached_property
    def eq(self):
        """RunReport of the equilibrium diagnostics run."""
        return _run(*self.set_ups[-1])


def _criterion_equilibrium(suite):
    grid = build_grid(50.0, 500)
    params = Params()
    state = equilibrium_state(grid)
    t0 = time.perf_counter()
    for _ in range(10_000):
        dt = stable_dt(state, grid, params)
        state = step_imex(state, dt, grid, params)
    seconds = time.perf_counter() - t0
    dev = max(float(np.max(np.abs(state.v - 1.0))),
              float(np.max(np.abs(state.theta - 1.0))),
              float(np.max(np.abs(state.u))))
    limits = {"deviation": THRESHOLDS["equilibrium_dev"],
              "seconds": THRESHOLDS["equilibrium_seconds"]}
    return dev <= limits["deviation"] and seconds < limits["seconds"], \
        {"deviation": dev, "seconds": seconds}, limits


def _criterion_mms(suite):
    report = mms_convergence()
    windows = {k: list(THRESHOLDS[f"{k}_order"])
               for k in ("spatial", "temporal")}
    return all(lo <= p <= hi for k, (lo, hi) in windows.items()
               for p in report[k]["orders"]), report, windows


def _criterion_tridiag(suite):
    thr = THRESHOLDS
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        n = 50
        # symmetric, strictly dominant, positive diagonal: what the
        # stepper assembles
        off = rng.uniform(-1.0, 1.0, n - 1)
        diag = rng.uniform(0.5, 2.0, n)
        diag[:-1] += np.abs(off)
        diag[1:] += np.abs(off)
        rhs = rng.uniform(-1.0, 1.0, n)
        x = solve_tridiagonal(diag, off, rhs)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        worst = max(worst, float(np.max(np.abs(x - np.linalg.solve(dense, rhs)))))
    grid = build_grid(20.0, 200)
    s = _frozen_state(grid)
    params = Params(beta=1.5)
    e_ref, v_ref = _fsum_quadrature(s, grid, params)
    quad_err = max(abs(energy_functional(s, grid, params) - e_ref),
                   abs(dissipation_functional(s, grid, params) - v_ref))
    passed = worst <= thr["tridiag_tol"] and quad_err <= thr["quad_tol"]
    return passed, {"tridiag": worst, "quadrature": quad_err}, \
        {"tridiag": thr["tridiag_tol"], "quadrature": thr["quad_tol"]}


def _rollup(runs, name, key="measured"):
    """One run verdict over the sweep: (passed on every run, {beta: its key})."""
    ok = all(r.verdicts[name]["pass"] for r in runs.values())
    return ok, {f"{b:g}": r.verdicts[name][key] for b, r in runs.items()}


def _criterion_energy(suite):
    ok, margins = _rollup(suite.runs, "energy_inequality")
    _, limits = _rollup(suite.runs, "energy_inequality", "threshold")
    margins["wall_seconds"] = max(r.wall_seconds for r in suite.runs.values())
    limits["wall_seconds"] = THRESHOLDS["run_seconds"]
    return ok and margins["wall_seconds"] <= limits["wall_seconds"], \
        margins, limits


def _criterion_stabilization(suite):
    ok, drift = _rollup(suite.runs, "stabilization")
    ok = ok and _rollup(suite.runs, "positivity")[0]
    return ok, drift, THRESHOLDS["drift_tol"]


def _criterion_decay(suite):
    ok_u, u = _rollup(suite.runs, "decay_u")
    ok_grad, grad = _rollup(suite.runs, "decay_grad")
    measured = {b: {"u": u[b], "grad": grad[b]} for b in u}
    return ok_u and ok_grad, measured, \
        {"u": THRESHOLDS["uinf_ratio"], "grad": THRESHOLDS["grad_ratio"]}


def _criterion_jensen(suite):
    resid = 0.0
    for r in suite.runs.values():
        for alpha in (r.alpha1, r.alpha2):
            resid = max(resid, abs(alpha - math.log(alpha) - 1.0 - r.e0))
    ok, measured = _rollup(suite.runs, "jensen_band")
    measured["root_residual"] = resid
    limit = THRESHOLDS["root_residual"]
    return ok and resid <= limit, measured, \
        {"excursion": 0.0, "root_residual": limit}


def _criterion_representation(suite):
    ok, measured = _rollup(suite.runs, "representation")
    eq_err = suite.eq.verdicts["representation"]["measured"]
    measured["equilibrium"] = eq_err
    limit = THRESHOLDS["repr_tol_equilibrium"]
    return ok and eq_err <= limit, measured, \
        {"runs": THRESHOLDS["repr_tol"], "equilibrium": limit}


def _criterion_y_decay(suite):
    ok, measured = _rollup(suite.runs, "y_slope")
    eq_slope = suite.eq.decay["y_slope"]
    measured["equilibrium_slope"] = eq_slope
    limit = THRESHOLDS["yslope_eq_tol"]
    return ok and abs(eq_slope + suite.eq.config["physics.R"]) <= limit, \
        measured, {"sign": 0.0, "equilibrium": limit}


# (number, name, evaluator) in report order; an evaluator takes the _Suite
# and returns (passed, measured, threshold)
_CRITERIA = (
    (1, "equilibrium", _criterion_equilibrium),
    (2, "mms_orders", _criterion_mms),
    (3, "energy_inequality", _criterion_energy),
    (4, "bound_stabilization", _criterion_stabilization),
    (5, "norm_decay", _criterion_decay),
    (6, "jensen_band", _criterion_jensen),
    (7, "representation", _criterion_representation),
    (8, "y_decay", _criterion_y_decay),
    (9, "integrability_plateaus",
     lambda suite: (*_rollup(suite.runs, "plateaus"),
                    THRESHOLDS["plateau_frac"])),
    (10, "oracle_agreement", _criterion_tridiag),
    (11, "farfield_fidelity",
     lambda suite: (*_rollup(suite.runs, "farfield"),
                    THRESHOLDS["farfield_tol"])),
)


def acceptance_suite(cfg, out_path, criteria=None, config_path=None):
    """Run the standing acceptance criteria on cfg; write the JSON to out_path.

    criteria selects a nonempty subset by number (1..11); every shared run
    passes check_runs first, whichever criteria run, and no output may be
    the config file config_path when given.  Every criterion and
    the run verdicts it rolls up read their limits from THRESHOLDS.
    Returns the aggregate report dict; "all_pass" says whether every
    executed criterion passed.
    A criterion's seconds are its running time, which includes any shared
    run it is the first to read: in the full suite the beta sweep falls to
    c03 and the equilibrium diagnostics run to c07.
    """
    numbers = {num for num, _, _ in _CRITERIA}
    wanted = numbers if criteria is None else {int(c) for c in criteria}
    bad = sorted(wanted - numbers)
    if bad or not wanted:
        raise ConfigError(f"no such criterion {bad[0]}" if bad
                          else "no criterion selected")
    set_ups = check_runs([*sweep_configs(cfg, _SUITE_BETAS),
                          _keyed(cfg, "equilibrium", **_EQ_RUN)], out_path,
                         config_path)

    suite, results = _Suite(set_ups), {}
    for num, name, evaluate in _CRITERIA:
        if num not in wanted:
            continue
        t0 = time.perf_counter()
        passed, measured, threshold = evaluate(suite)
        seconds = time.perf_counter() - t0
        results[f"c{num:02d}_{name}"] = {
            "pass": bool(passed), "measured": measured,
            "threshold": threshold, "seconds": round(seconds, 3)}
    report = {"criteria": results,
              "all_pass": all(r["pass"] for r in results.values())}
    write_json(report, out_path)
    return report
