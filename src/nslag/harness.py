"""Run orchestration: config files, series output, reports, verification.

Configs are flat "key = value" text.  Time series go to CSV with a fixed
23-column schema, verdicts to JSON.  The acceptance suite bundles the
standing checks: equilibrium preservation, manufactured-solution
convergence orders, the long bump runs across the conductivity exponents,
and solver/quadrature cross-checks.
"""

from __future__ import annotations

import json
import math
import os
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from operator import attrgetter

import numpy as np

from .core import (ConfigError, ICSpec, Params, State, build_grid,
                   equilibrium_state, make_initial_data)
from .diagnostics import (_ratio, decay_report, dissipation_functional,
                          energy_functional, entropy_roots, make_repr_probe,
                          reconstruct_v, running_integrals, sample_bounds,
                          sample_energy, unit_interval_averages,
                          update_repr_probe)
from .model import MmsProfile, strain_rate
from .stepper import (StepControl, StepFailure, advance, solve_tridiagonal,
                      stable_dt, step_imex)

SERIES_HEADER = ("t,E,V,cumV,vmin,vmax,thmin,thmax,n2_vm1,n2_u,n2_thm1,"
                 "ninf_vm1,ninf_u,ninf_thm1,g2_vx,g2_ux,g2_thx,pospart,"
                 "cum_ux2,cum_pospart,Y_probe,repr_relerr,farfield_dev")
SERIES_COLUMNS = SERIES_HEADER.split(",")

# verdict thresholds used by run reports and the acceptance suite
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
        center=6.0, width=1.0, floor=0.1))
    t_final: float = 100.0
    sample_dt: float = 0.5
    ctl: StepControl = field(default_factory=StepControl)
    probe_interval: int | None = None   # None: floor(length/4)
    series_path: str = "series.csv"
    report_path: str = "report.json"

    def resolved_probe(self):
        if self.probe_interval is None:
            return int(math.floor(self.length / 4.0))
        return self.probe_interval


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
    "ic.floor": ("ic.floor", float),
    "run.t_final": ("t_final", float),
    "run.sample_dt": ("sample_dt", float),
    "ctl.cfl_hyp": ("ctl.cfl_hyp", float),
    "ctl.dt_min": ("ctl.dt_min", float),
    "probe.interval": ("probe_interval", int),
    "out.series": ("series_path", str),
    "out.report": ("report_path", str),
}


def default_config():
    return RunConfig()


def require_out_dir(name, path):
    """Raise ConfigError unless the directory path is written into exists."""
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"{name} = {path}: its directory does not exist")


def _validate_config(cfg):
    if not 0.0 < cfg.t_final < math.inf:
        raise ConfigError(f"run.t_final must be positive and finite, got {cfg.t_final}")
    if not cfg.sample_dt > 0.0:
        raise ConfigError(f"run.sample_dt must be positive, got {cfg.sample_dt}")
    if not cfg.length > 0.0:
        raise ConfigError(f"grid.length must be positive, got {cfg.length}")
    if cfg.n_cells < 4:
        raise ConfigError(f"grid.cells must be at least 4, got {cfg.n_cells}")
    try:
        build_grid(cfg.length, cfg.n_cells).unit_cells
    except ConfigError as exc:
        raise ConfigError(f"grid.cells = {cfg.n_cells} on grid.length = "
                          f"{cfg.length}: {exc}") from None
    gap = cfg.far_length - cfg.length
    if gap < 0.0 or abs(gap - round(gap)) > 1e-9:
        raise ConfigError(
            f"grid.far_length = {cfg.far_length} must lie a whole number of "
            f"mass units (0 or more) beyond grid.length = {cfg.length}")
    i = cfg.resolved_probe()
    if not (1 <= i and i + 1 <= cfg.length - 1):
        raise ConfigError(f"probe.interval = {i} too close to a boundary")
    require_out_dir("out.series", cfg.series_path)
    require_out_dir("out.report", cfg.report_path)
    return cfg


def config_from_dict(values):
    """Build a validated RunConfig from {config key: typed value}."""
    unknown = set(values) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")
    base = default_config()
    changes = {}   # {section attribute, "" for RunConfig itself: {field: value}}
    for key, (path, _) in CONFIG_KEYS.items():
        if key in values:
            section, _, attr = path.rpartition(".")
            changes.setdefault(section, {})[attr] = values[key]
    top = changes.pop("", {})
    # Params and StepControl validate themselves when rebuilt
    for section, fields in changes.items():
        top[section] = replace(getattr(base, section), **fields)
    return _validate_config(replace(base, **top))


def load_config(path):
    """Parse a flat key = value config file; unknown keys are rejected."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
    """Flat {config key: value} view of a RunConfig, probe default resolved."""
    flat = {key: attrgetter(path)(cfg) for key, (path, _) in CONFIG_KEYS.items()}
    flat["probe.interval"] = cfg.resolved_probe()
    return flat


def write_config(cfg, path):
    """Write every config key explicitly; load_config round-trips it."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in config_to_dict(cfg).items():
            fh.write(f"{key} = {value}\n")


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


def _run_verdicts(thr, band, decay, series, avg_min, avg_max, worst_repr):
    """The ten run verdicts in report order, each with pass, measured value
    and threshold.

    band is the entropy band of E(0), decay the decay_report of the run,
    series its {column name: float column}, avg_min and avg_max the
    extremes of its unit-interval averages and worst_repr its largest
    reconstruction error.
    """
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
        "representation": _at_most(worst_repr, thr["repr_tol"]),
        "y_slope": _verdict(slope is not None and slope < 0.0, slope, 0.0),
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


# the series values of an energy and a bounds record, in schema order
_ENERGY_VALUES = attrgetter(*SERIES_COLUMNS[:4])
_BOUNDS_VALUES = attrgetter(*SERIES_COLUMNS[4:20])


class _RunAccumulator:
    """Diagnostics state threaded through advance as its on_step.

    Every step advances the probe and the running integrals, on the strain
    rate it handed on (ux keeps it for the next advance).  At sample times
    record() fills the full energy and bounds records from the integrands
    the last step computed, appends their values to series (a float column
    per schema column) and writes them as the sample's row.
    """

    def __init__(self, state0, grid, params, probe_i, write_row):
        self.grid = grid
        self.params = params
        self.write_row = write_row
        self.ux = strain_rate(state0.u, grid.dx)
        self.running = running_integrals(state0, grid, params, ux=self.ux)
        self.probe = make_repr_probe(state0, grid, params, probe_i)
        self.n_steps = 0
        self.series = {c: array("d") for c in SERIES_COLUMNS}
        self.avg_min, self.avg_max = math.inf, -math.inf
        self.worst_repr = 0.0

    def __call__(self, prev, new, dt, ux):
        self.n_steps += 1
        self.ux = ux
        self.running = running_integrals(new, self.grid, self.params,
                                         self.running, ux)
        update_repr_probe(self.probe, new, dt, self.grid, self.params)

    def record(self, state):
        """Sample the state the last step reached and write its row."""
        e = sample_energy(state, self.grid, self.params, self.running)
        b = sample_bounds(state, self.grid, self.running)
        averages = unit_interval_averages(state, self.grid)
        self.avg_min = min(self.avg_min, float(averages.min()))
        self.avg_max = max(self.avg_max, float(averages.max()))
        _, _, relerr = reconstruct_v(self.probe, state, self.params)
        self.worst_repr = max(self.worst_repr, relerr)
        values = (*_ENERGY_VALUES(e), *_BOUNDS_VALUES(b),
                  math.ldexp(self.probe.Y, self.probe.Y_exp), relerr,
                  b.farfield_dev)
        for column, x in zip(self.series.values(), values):
            column.append(x)
        self.write_row(values)


def _sample_times(t_final, sample_dt):
    n = int(math.floor(t_final / sample_dt + 1e-9))
    yield from (k * sample_dt for k in range(1, n))
    if n >= 1 and n * sample_dt < t_final:
        yield n * sample_dt
    yield t_final


def run_simulation(cfg, thresholds=None):
    """Run one configured trajectory and evaluate every standing verdict.

    Samples diagnostics on the sample_dt cadence (running integrals and the
    probe advance every step), streams the series CSV as it goes, writes
    the JSON report, and returns the RunReport.  A stepper failure is
    re-raised after the offending state is written next to the report.
    """
    _validate_config(cfg)
    thr = {**THRESHOLDS, **(thresholds or {})}
    wall0 = time.perf_counter()

    grid = build_grid(cfg.length, cfg.n_cells, cfg.far_length)
    params = cfg.params
    state = make_initial_data(grid, cfg.ic)
    band = entropy_roots(energy_functional(state, grid, params))
    with open(cfg.series_path, "w", encoding="utf-8") as fh:
        acc = _RunAccumulator(state, grid, params, cfg.resolved_probe(),
                              _series_writer(fh))
        acc.record(state)
        for t_next in _sample_times(cfg.t_final, cfg.sample_dt):
            try:
                state = advance(state, t_next, grid, params, cfg.ctl,
                                ux=acc.ux, on_step=acc)
            except StepFailure as exc:
                snap = cfg.report_path + ".failed_state.txt"
                write_snapshot(exc.state, grid, snap)
                exc.snapshot_path = snap
                raise
            acc.record(state)

    decay = decay_report(acc.series, logy=(acc.probe.logY_t, acc.probe.logY))
    report = RunReport(
        config=config_to_dict(cfg),
        verdicts=_run_verdicts(thr, band, decay, acc.series, acc.avg_min,
                               acc.avg_max, acc.worst_repr),
        decay=decay,
        e0=band.e0,
        alpha1=band.alpha1,
        alpha2=band.alpha2,
        n_steps=acc.n_steps,
        wall_seconds=time.perf_counter() - wall0,
    )
    with open(cfg.report_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
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


def _mms_run(n_cells, dt, t_end, prof, params):
    grid = build_grid(prof.length, n_cells)
    state, ux = _mms_state(grid, prof, 0.0), None
    while state.t < t_end:
        step = min(dt, t_end - state.t)
        hits = step >= t_end - state.t
        state, ux = step_imex(state, step, grid, params, mms=prof, ux=ux)
        if hits:
            state.t = t_end
    return state, grid


def mms_convergence(levels=3, base_cells=100, amp=0.1, length=20.0,
                    t_end=0.5, params=None):
    """Manufactured-solution convergence study.

    Spatial: cells = base * 2^k with the step tied to h^2, so the measured
    order isolates the second-order stencils.  Temporal: fixed fine grid,
    successive step halvings compared pairwise (Richardson differences at
    one grid cancel the spatial error exactly), giving the first-order rate.
    """
    if levels < 3 or base_cells < 4:
        raise ConfigError(f"need at least 3 refinement levels and 4 base "
                          f"cells, got {levels} and {base_cells}")
    params = Params() if params is None else params
    prof = MmsProfile(amp=amp, length=length)

    cells = [base_cells * 2 ** k for k in range(levels)]
    errors = []
    for n in cells:
        h = length / n
        state, grid = _mms_run(n, 0.2 * h * h, t_end, prof, params)
        errors.append(_l2_distance(state, _mms_state(grid, prof, state.t),
                                   grid))
    exact = all(e < 1e-14 for e in errors)
    if exact:
        sp_ratios, sp_orders = [], []
    else:
        sp_ratios = [errors[k] / errors[k + 1] for k in range(levels - 1)]
        sp_orders = [math.log2(rho) for rho in sp_ratios]

    n_t = 16 * base_cells // 2
    dts = [4e-3, 2e-3, 1e-3, 5e-4]
    finals = [_mms_run(n_t, dt, t_end, prof, params)[0] for dt in dts]
    grid_t = build_grid(length, n_t)
    diffs = [_l2_distance(a, b, grid_t)
             for a, b in zip(finals[:-1], finals[1:])]
    if exact and all(d < 1e-14 for d in diffs):
        tm_ratios, tm_orders = [], []
    else:
        tm_ratios = [diffs[k] / diffs[k + 1] for k in range(len(diffs) - 1)]
        tm_orders = [math.log2(rho) for rho in tm_ratios]

    return {
        "spatial": {"cells": cells, "errors": errors,
                    "ratios": sp_ratios, "orders": sp_orders},
        "temporal": {"cells": n_t, "dts": dts, "diffs": diffs,
                     "ratios": tm_ratios, "orders": tm_orders},
        "exact": exact,
    }


def _keyed_path(path, tag):
    root, ext = os.path.splitext(path)
    return f"{root}_{tag}{ext}"


def _sweep_worker(args):
    cfg, beta = args
    run_cfg = replace(
        cfg,
        params=replace(cfg.params, beta=beta),
        series_path=_keyed_path(cfg.series_path, f"beta{beta:g}"),
        report_path=_keyed_path(cfg.report_path, f"beta{beta:g}"))
    return beta, run_simulation(run_cfg)


def sweep(cfg, betas):
    """Run one config across conductivity exponents; order-independent output.

    Parallelism is capped by the NSLAG_THREADS environment variable (or the
    CPU count).  Returns {beta: RunReport} sorted by beta.
    """
    betas = sorted(set(float(b) for b in betas))
    cap = os.environ.get("NSLAG_THREADS")
    try:
        workers = min(len(betas), int(cap) if cap else (os.cpu_count() or 1))
    except ValueError:
        raise ConfigError(
            f"NSLAG_THREADS must be an integer, got {cap!r}") from None
    jobs = [(cfg, b) for b in betas]
    if workers <= 1:
        results = [_sweep_worker(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    return dict(sorted(results, key=lambda kv: kv[0]))


# ---------------------------------------------------------------------------
# acceptance suite


def _fsum_quadrature(s, grid, params):
    # independent route: plain python loops over reversed index order with
    # compensated summation, no shared code with the vectorized evaluators
    h = grid.h
    n = grid.n_cells
    terms_e = []
    for j in range(n - 1, -1, -1):
        ub = 0.5 * (s.u[j] + s.u[j + 1])
        terms_e.append(h * (0.5 * ub * ub
                            + params.R * (s.v[j] - math.log(s.v[j]) - 1.0)
                            + params.cv * (s.theta[j] - math.log(s.theta[j]) - 1.0)))
    energy = math.fsum(terms_e)
    terms_v = []
    for j in range(n - 1, -1, -1):
        ux = (s.u[j + 1] - s.u[j]) / h
        terms_v.append(h * params.mu * ux * ux / (s.v[j] * s.theta[j]))
    for i in range(n - 1, 0, -1):
        tf = 0.5 * (s.theta[i - 1] + s.theta[i])
        vf = 0.5 * (s.v[i - 1] + s.v[i])
        dth = (s.theta[i] - s.theta[i - 1]) / h
        terms_v.append(h * params.kappa * tf ** params.beta * dth * dth
                       / (vf * tf * tf))
    dissipation = math.fsum(terms_v)
    return energy, dissipation


def _frozen_state(grid, seed=2024):
    rng = np.random.default_rng(seed)
    n = grid.n_cells
    v = 1.0 + 0.4 * np.sin(grid.centers()) + 0.05 * rng.standard_normal(n)
    theta = 1.2 + 0.3 * np.cos(2.0 * grid.centers()) \
        + 0.05 * rng.standard_normal(n)
    u = 0.2 * np.sin(3.0 * grid.faces()) + 0.02 * rng.standard_normal(n + 1)
    u[-1] = 0.0
    return State(0.0, v, theta, u)


@dataclass
class _Suite:
    """What the criteria read: config, thresholds and the shared runs."""

    cfg: RunConfig
    thr: dict
    runs: dict = field(default_factory=dict)   # {beta: RunReport} of the sweep
    eq: RunReport | None = None                # equilibrium diagnostics run


def _criterion_equilibrium(suite):
    grid = build_grid(50.0, 500)
    params, ctl = Params(), StepControl()
    state, ux = equilibrium_state(grid), None
    t0 = time.perf_counter()
    for _ in range(10_000):
        dt = stable_dt(state, grid, params, ctl)
        state, ux = step_imex(state, dt, grid, params, ux=ux)
    seconds = time.perf_counter() - t0
    dev = max(float(np.max(np.abs(state.v - 1.0))),
              float(np.max(np.abs(state.theta - 1.0))),
              float(np.max(np.abs(state.u))))
    limit = suite.thr["equilibrium_dev"]
    return dev <= limit and seconds < 5.0, dev, limit


def mms_orders_pass(report, thresholds=None):
    """Whether an mms_convergence report has orders, all inside their windows.

    The windows are thresholds' "spatial_order" and "temporal_order",
    THRESHOLDS' when thresholds is None.
    """
    thr = THRESHOLDS if thresholds is None else thresholds
    lo_s, hi_s = thr["spatial_order"]
    lo_t, hi_t = thr["temporal_order"]
    sp = report["spatial"]["orders"]
    tm = report["temporal"]["orders"]
    return bool(sp and all(lo_s <= p <= hi_s for p in sp)
                and tm and all(lo_t <= p <= hi_t for p in tm))


def _criterion_mms(suite):
    report = mms_convergence(levels=3, base_cells=100)
    measured = {"spatial": report["spatial"]["orders"],
                "temporal": report["temporal"]["orders"]}
    return mms_orders_pass(report, suite.thr), measured, \
        {"spatial": list(suite.thr["spatial_order"]),
         "temporal": list(suite.thr["temporal_order"])}


def _criterion_tridiag(suite):
    thr = suite.thr
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
    ok = ok and all(r.wall_seconds <= 120.0 for r in suite.runs.values())
    return ok, margins, limits


def _criterion_stabilization(suite):
    ok, drift = _rollup(suite.runs, "stabilization")
    ok = ok and _rollup(suite.runs, "positivity")[0]
    return ok, drift, suite.thr["drift_tol"]


def _criterion_decay(suite):
    ok_u, u = _rollup(suite.runs, "decay_u")
    ok_grad, grad = _rollup(suite.runs, "decay_grad")
    measured = {b: {"u": u[b], "grad": grad[b]} for b in u}
    return ok_u and ok_grad, measured, \
        {"u": suite.thr["uinf_ratio"], "grad": suite.thr["grad_ratio"]}


def _criterion_jensen(suite):
    resid = 0.0
    for r in suite.runs.values():
        for alpha in (r.alpha1, r.alpha2):
            resid = max(resid, abs(alpha - math.log(alpha) - 1.0 - r.e0))
    ok, measured = _rollup(suite.runs, "jensen_band")
    measured["root_residual"] = resid
    limit = suite.thr["root_residual"]
    return ok and resid <= limit, measured, \
        {"excursion": 0.0, "root_residual": limit}


def _criterion_representation(suite):
    ok, measured = _rollup(suite.runs, "representation")
    eq_err = suite.eq.verdicts["representation"]["measured"]
    measured["equilibrium"] = eq_err
    limit = suite.thr["repr_tol_equilibrium"]
    return ok and eq_err <= limit, measured, \
        {"runs": suite.thr["repr_tol"], "equilibrium": limit}


def _criterion_y_decay(suite):
    ok, measured = _rollup(suite.runs, "y_slope")
    eq_slope = suite.eq.decay["y_slope"]
    measured["equilibrium_slope"] = eq_slope
    limit = suite.thr["yslope_eq_tol"]
    return ok and abs(eq_slope + suite.cfg.params.R) <= limit, measured, \
        {"sign": 0.0, "equilibrium": limit}


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
                    suite.thr["plateau_frac"])),
    (10, "oracle_agreement", _criterion_tridiag),
    (11, "farfield_fidelity",
     lambda suite: (*_rollup(suite.runs, "farfield"),
                    suite.thr["farfield_tol"])),
)
_NEEDS_SWEEP = {3, 4, 5, 6, 7, 8, 9, 11}
_NEEDS_EQUILIBRIUM_RUN = {7, 8}


def _equilibrium_diag_run(cfg, thr):
    run_cfg = replace(
        cfg,
        n_cells=500,
        ic=ICSpec(kind="equilibrium"),
        t_final=10.0,
        series_path=_keyed_path(cfg.series_path, "equilibrium"),
        report_path=_keyed_path(cfg.report_path, "equilibrium"))
    return run_simulation(run_cfg, thresholds=thr)


def acceptance_suite(cfg=None, criteria=None, overrides=None, out_path=None):
    """Execute the standing acceptance criteria and write one aggregate JSON.

    criteria selects a subset by number (1..11); an explicit empty list is a
    vacuous pass with a warning.  overrides patches threshold values by
    name.  Returns the aggregate report dict; "all_pass" says whether every
    executed criterion passed.  A criterion's seconds are its own running
    time plus the shared run charged to it: the beta sweep to c03, the
    equilibrium diagnostics run to c07.
    """
    cfg = default_config() if cfg is None else cfg
    thr = dict(THRESHOLDS)
    if overrides:
        unknown = set(overrides) - set(thr)
        if unknown:
            raise ConfigError(f"unknown threshold {sorted(unknown)[0]!r}")
        thr.update(overrides)
    numbers = {num for num, _, _ in _CRITERIA}
    wanted = numbers if criteria is None else {int(c) for c in criteria}
    bad = sorted(wanted - numbers)
    if bad:
        raise ConfigError(f"no such criterion {bad[0]}")

    report = {"criteria": {}, "all_pass": True}
    if not wanted:
        report["warning"] = "empty criterion list: vacuous pass"

    suite = _Suite(cfg, thr)
    charged = {}
    if wanted & _NEEDS_SWEEP:
        t0 = time.perf_counter()
        suite.runs = sweep(cfg, [0.5, 1.0, 2.5])
        charged[3] = time.perf_counter() - t0
    if wanted & _NEEDS_EQUILIBRIUM_RUN:
        t0 = time.perf_counter()
        suite.eq = _equilibrium_diag_run(cfg, thr)
        charged[7] = time.perf_counter() - t0

    for num, name, evaluate in _CRITERIA:
        if num not in wanted:
            continue
        t0 = time.perf_counter()
        passed, measured, threshold = evaluate(suite)
        seconds = time.perf_counter() - t0 + charged.get(num, 0.0)
        report["criteria"][f"c{num:02d}_{name}"] = {
            "pass": bool(passed), "measured": measured,
            "threshold": threshold, "seconds": round(seconds, 3)}
        if not passed:
            report["all_pass"] = False

    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report
