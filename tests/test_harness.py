import ast
import importlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslag import cli, diagnostics, harness, stepper
from nslag.cli import main as cli_main
from nslag.core import ConfigError, ICSpec, Params, build_grid, \
    make_initial_data
from nslag.diagnostics import (JensenBand, decay_report,
                               dissipation_functional, make_repr_probe,
                               reconstruct_v, running_integrals,
                               sample_bounds, sample_energy,
                               update_repr_probe)
from nslag.harness import (CONFIG_KEYS, SERIES_COLUMNS, SERIES_HEADER,
                           THRESHOLDS, RunConfig, acceptance_suite,
                           config_from_dict, config_to_dict,
                           default_config, load_config, mms_convergence,
                           read_series, run_simulation, sweep, write_config,
                           write_snapshot)
from nslag.model import MmsProfile, strain_rate
from nslag.stepper import StepFailure, advance


def _quick_cfg(tmp_path, **kw):
    base = dict(
        n_cells=250, t_final=10.0, sample_dt=0.5,
        ic=ICSpec(kind="bump", amp_v=0.2, amp_u=0.2, amp_theta=0.2,
                  center=6.0, width=1.0, floor=0.1),
        series_path=str(tmp_path / "series.csv"),
        report_path=str(tmp_path / "report.json"))
    base.update(kw)
    return replace(default_config(), **base)


def test_default_config_values():
    cfg = default_config()
    assert cfg.params == Params()
    assert (cfg.length, cfg.n_cells) == (50.0, 2000)
    assert cfg.ic.kind == "bump"
    assert (cfg.t_final, cfg.sample_dt) == (100.0, 0.5)
    assert cfg.resolved_probe() == 12
    assert cfg.series_path == "series.csv"
    assert cfg.report_path == "report.json"


def test_minimal_file_takes_defaults(tmp_path):
    path = tmp_path / "one.cfg"
    path.write_text("physics.beta = 1\n")
    cfg = load_config(str(path))
    assert cfg == default_config()


def test_load_config_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("physics.beta = 1\nphysics.mu 2\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        load_config(str(path))


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# comment\nphysics.betta = 1\n")
    with pytest.raises(ConfigError, match=r"2.*physics\.betta"):
        load_config(str(path))


def test_load_config_validates_named_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("grid.cells = -5\n")
    with pytest.raises(ConfigError, match=r"grid\.cells"):
        load_config(str(path))


def test_load_config_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("physics.mu = fast\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:1"):
        load_config(str(path))


def test_config_round_trip(tmp_path):
    first = tmp_path / "a.cfg"
    second = tmp_path / "b.cfg"
    write_config(default_config(), str(first))
    cfg = load_config(str(first))
    write_config(cfg, str(second))
    assert first.read_text() == second.read_text()
    assert load_config(str(second)) == cfg


def test_grid_must_resolve_unit_intervals():
    with pytest.raises(ConfigError, match="unit"):
        config_from_dict({"grid.length": 50.0, "grid.cells": 120})


def test_config_rejects_bad_far_length():
    with pytest.raises(ConfigError, match=r"grid\.far_length"):
        config_from_dict({"grid.far_length": 40.0})
    with pytest.raises(ConfigError, match=r"whole number"):
        config_from_dict({"grid.far_length": 100.5})
    assert config_from_dict({"grid.far_length": 50.0}).far_length == 50.0


def test_config_rejects_nonpositive_horizon():
    with pytest.raises(ConfigError, match=r"t_final"):
        config_from_dict({"run.t_final": 0.0})


def test_config_rejects_infinite_horizon(tmp_path, capsys):
    with pytest.raises(ConfigError, match=r"run\.t_final"):
        config_from_dict({"run.t_final": math.inf})
    cfg_path = tmp_path / "inf.cfg"
    cfg_path.write_text("run.t_final = inf\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "run.t_final" in err


config_floats = st.floats(0.1, 10.0).filter(lambda x: x != 1.0)

# a value other than the default for every config key; grid.length 100
# keeps h dividing the unit interval for every drawn cell count, and
# grid.far_length 150 lies a whole number of units beyond it
NON_DEFAULT = {
    "physics.beta": 2.5, "physics.mu": 0.7, "physics.kappa": 1.3,
    "physics.R": 1.2, "physics.cv": 1.8, "grid.length": 100.0,
    "grid.cells": 500, "grid.far_length": 150.0, "ic.kind": "packet",
    "ic.amp_v": 0.2,
    "ic.amp_u": -0.1, "ic.amp_theta": 0.25, "ic.center": 7.0,
    "ic.width": 1.5, "ic.floor": 0.2, "run.t_final": 30.0,
    "run.sample_dt": 0.25, "ctl.cfl_hyp": 0.3, "ctl.dt_min": 1e-10,
    "probe.interval": 9, "out.series": "s.csv", "out.report": "r.json",
}


@settings(max_examples=30, deadline=None)
@given(beta=config_floats, mu=config_floats,
       amp=st.floats(-0.5, 0.5).filter(lambda x: x != 0.3),
       cells=st.sampled_from([100, 200, 500, 1000]))
def test_config_dict_round_trip(beta, mu, amp, cells):
    values = dict(NON_DEFAULT)
    values.update({"physics.beta": beta, "physics.mu": mu, "ic.amp_u": amp,
                   "grid.cells": cells})
    defaults = config_to_dict(default_config())
    assert all(values[key] != defaults[key] for key in CONFIG_KEYS)
    flat = config_to_dict(config_from_dict(values))
    assert flat == values
    assert list(flat) == list(CONFIG_KEYS)
    assert config_to_dict(config_from_dict(flat)) == flat


def test_series_header_contract():
    assert SERIES_HEADER == (
        "t,E,V,cumV,vmin,vmax,thmin,thmax,n2_vm1,n2_u,n2_thm1,ninf_vm1,"
        "ninf_u,ninf_thm1,g2_vx,g2_ux,g2_thx,pospart,cum_ux2,cum_pospart,"
        "Y_probe,repr_relerr,farfield_dev")


def test_write_series_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    rows = [{c: float(x) for c, x in zip(SERIES_COLUMNS,
                                         rng.standard_normal(23))}
            for _ in range(4)]
    path = tmp_path / "series.csv"
    with open(path, "w", encoding="utf-8") as fh:
        write_row = harness._series_writer(fh)
        for row in rows:
            write_row(row.values())
    lines = path.read_text().splitlines()
    assert lines[0] == SERIES_HEADER
    assert len(lines) == 5
    back = read_series(str(path))
    assert back == rows


@pytest.mark.parametrize("n_fields", [22, 25])
def test_read_series_rejects_wrong_field_count(tmp_path, n_fields):
    """A row with more or fewer fields than the header is an error naming
    the file and line, not a row with missing or dropped columns."""
    path = tmp_path / "series.csv"
    path.write_text(f"{SERIES_HEADER}\n{','.join(['1.0'] * 23)}\n"
                    f"{','.join(['2.0'] * n_fields)}\n")
    with pytest.raises(ConfigError,
                       match=f"series.csv:3: {n_fields} fields, the header "
                             f"has 23"):
        read_series(str(path))


def test_snapshot_blocks(tmp_path):
    from nslag.core import build_grid, equilibrium_state
    grid = build_grid(4.0, 4)
    path = tmp_path / "snap.txt"
    write_snapshot(equilibrium_state(grid), grid, str(path))
    text = path.read_text()
    for name in ("v", "u", "theta"):
        assert f"# field {name} at t = 0.0" in text
    # one row per cell for v/theta, per face for u, plus headers and blanks
    assert len([ln for ln in text.splitlines() if ln and not
                ln.startswith("#")]) == 4 + 5 + 4


def test_run_simulation_equilibrium_all_pass(tmp_path):
    cfg = _quick_cfg(tmp_path, ic=ICSpec(kind="equilibrium"))
    report = run_simulation(cfg)
    assert report.all_pass
    rows = read_series(cfg.series_path)
    assert len(rows) == 21
    assert all(row["n2_u"] == 0.0 for row in rows[:1])
    assert max(abs(row["ninf_u"]) for row in rows) <= 1e-13
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["all_pass"] is True
    assert saved["verdicts"].keys() == report.verdicts.keys()


def test_run_simulation_samples_on_cadence(tmp_path):
    cfg = _quick_cfg(tmp_path, ic=ICSpec(kind="equilibrium"), t_final=5.0,
                     sample_dt=0.5)
    run_simulation(cfg)
    rows = read_series(cfg.series_path)
    np.testing.assert_allclose([row["t"] for row in rows],
                               np.arange(0.0, 5.5, 0.5), atol=0)


def test_run_simulation_verdicts_have_thresholds(tmp_path):
    cfg = _quick_cfg(tmp_path)
    report = run_simulation(cfg)
    for name, v in report.verdicts.items():
        assert set(v) >= {"pass", "measured", "threshold"}, name
    assert report.n_steps > 0 and report.wall_seconds > 0
    assert report.e0 > 0 and report.alpha1 < 1 < report.alpha2


def test_far_length_at_length_is_the_wall_run(tmp_path):
    """grid.far_length = grid.length pins the rest state at mass 50, where
    the bump's wave arrives and reflects: the default run then takes the
    14,396 steps it took before the far zone existed and its far field
    reads about 2.77e-2, red against the 1e-4 tolerance."""
    cfg = replace(default_config(), far_length=50.0,
                  series_path=str(tmp_path / "series.csv"),
                  report_path=str(tmp_path / "report.json"))
    report = run_simulation(cfg)
    assert report.n_steps == 14396
    far = report.verdicts["farfield"]
    assert not far["pass"]
    assert far["measured"] == pytest.approx(2.77e-2, rel=2e-3)


def test_run_simulation_rejects_zero_horizon(tmp_path):
    with pytest.raises(ConfigError):
        run_simulation(_quick_cfg(tmp_path, t_final=0.0))


def test_mms_zero_amplitude_is_exact():
    report = mms_convergence(levels=3, base_cells=50, amp=0.0, t_end=0.1)
    assert report["exact"]
    assert report["spatial"]["orders"] == []
    assert all(e < 1e-14 for e in report["spatial"]["errors"])


def test_mms_requires_three_levels():
    with pytest.raises(ConfigError):
        mms_convergence(levels=2)


def test_cli_mms_rejects_too_few_cells(capsys):
    assert cli_main(["mms", "--cells", "0"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("key", ["out.series", "out.report"])
def test_cli_run_rejects_output_in_missing_directory(tmp_path, capsys, key):
    target = tmp_path / "missing" / "out.txt"
    paths = {"out.series": tmp_path / "series.csv",
             "out.report": tmp_path / "report.json", key: target}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in paths.items()))
    assert cli_main(["run", "--config", str(cfg)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"config error: {key} = {target}")
    assert out.out == ""
    assert sorted(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("argv", [["mms", "--cells", "8"],
                                  ["check", "--criteria", "10"]])
def test_cli_out_in_missing_directory_fails_before_work(tmp_path, capsys,
                                                        argv):
    """--out in a missing directory is a config error before the study or
    criterion runs: nothing is printed and no file is written."""
    target = tmp_path / "missing" / "out.json"
    assert cli_main([*argv, "--out", str(target)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"config error: --out = {target}")
    assert out.out == ""
    assert list(tmp_path.iterdir()) == []


def test_cli_write_config_rejects_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "x.cfg"
    assert cli_main(["write-config", str(target)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"config error: path = {target}")
    assert out.out == ""
    assert list(tmp_path.iterdir()) == []


def test_probe_stays_finite_at_long_horizon(tmp_path):
    """The probe's Y decays like e^{-R t} and its integral I grows like
    e^{R t}; past R t = 709 neither fits a float.  At T = 1000 the run
    must warn of nothing, read the representation error of the T = 700
    run (whose worst sample comes early) and keep ln Y's slope at -R."""
    reports = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for t_final in (700.0, 1000.0):
            reports[t_final] = run_simulation(_quick_cfg(
                tmp_path, n_cells=100, t_final=t_final, sample_dt=2.0,
                ic=default_config().ic))
    late, ref = reports[1000.0], reports[700.0]
    assert (late.verdicts["representation"]["measured"]
            == ref.verdicts["representation"]["measured"])
    assert abs(late.decay["y_slope"] + late.config["physics.R"]) <= 1e-3


def test_run_history_keeps_eight_bytes_per_value(tmp_path, monkeypatch):
    """A run keeps its history as float columns: when decay_report starts,
    the memory the run holds is at most 8 bytes per series value of each
    sample and per (t, ln Y) value of each step, with a quarter more for
    the columns' spare capacity and 64 KiB for its fixed state (grid,
    fields, probe, open file).  Records kept per sample need about 1 KB."""
    cfg = _quick_cfg(tmp_path, n_cells=100, sample_dt=0.01, t_final=20.0)
    run_simulation(replace(cfg, t_final=0.5))   # imports and caches warm
    held = []
    inner = harness.decay_report

    def measured(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(harness, "decay_report", measured)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = run_simulation(cfg)
    finally:
        tracemalloc.stop()
    n_samples = report.decay["n_samples"]
    assert n_samples == 2001 and report.n_steps >= 2000
    values = len(SERIES_COLUMNS) * n_samples + 2 * report.n_steps
    assert held[0] - base <= 1.25 * 8 * values + 65536


def _short_default_cfg(tmp_path):
    # the default run cut to its first time unit, ten samples after t = 0
    return replace(default_config(), t_final=1.0, sample_dt=0.1,
                   series_path=str(tmp_path / "series.csv"),
                   report_path=str(tmp_path / "report.json"))


def test_run_hands_step_strain_rate_to_running_integrals(tmp_path,
                                                         monkeypatch):
    """The running integrals get each state's strain rate handed in, bit
    for bit the strain rate of its velocity."""
    seen = []
    inner = harness.running_integrals

    def checked(s, grid, params, prev=None, ux=None):
        seen.append(ux is not None and ux.tobytes()
                    == strain_rate(s.u, grid.dx).tobytes())
        return inner(s, grid, params, prev, ux)

    monkeypatch.setattr(harness, "running_integrals", checked)
    report = run_simulation(_short_default_cfg(tmp_path))
    assert report.n_steps > 100
    assert seen == [True] * (report.n_steps + 1)


def test_run_evaluates_strain_rate_once_per_step(tmp_path, monkeypatch):
    """One strain rate per accepted step, plus the initial state's: the
    step's own reaches the running integrals and the next step."""
    calls = []

    def counted(u, h):
        calls.append(h)
        return strain_rate(u, h)

    for module in (stepper, diagnostics, harness):
        monkeypatch.setattr(module, "strain_rate", counted)
    report = run_simulation(_short_default_cfg(tmp_path))
    assert report.n_steps > 100
    assert len(calls) == report.n_steps + 1


@pytest.mark.parametrize("far_length", [50.0, 225.0])
@pytest.mark.parametrize("beta", [0.5, 2.5])
def test_run_records_match_chained_samples(tmp_path, far_length, beta):
    """A run advances only the running integrals every step and fills the
    full records at sample times.  Its series must equal, bit for bit,
    running_integrals chained through every accepted step, sample_energy
    and sample_bounds read from it at the sample times, and the probe
    advanced by update_repr_probe, on a uniform and on a graded grid.  The
    chained dissipation must equal a fresh evaluation at every sample."""
    cfg = _quick_cfg(tmp_path, n_cells=100, t_final=5.0,
                     far_length=far_length, params=Params(beta=beta))
    run_simulation(cfg)
    rows = read_series(cfg.series_path)

    grid = build_grid(cfg.length, cfg.n_cells, cfg.far_length)
    state = make_initial_data(grid, cfg.ic)
    running = [running_integrals(state, grid, cfg.params)]
    probe = make_repr_probe(state, grid, cfg.params, cfg.resolved_probe())

    def step(prev, new, dt, ux):
        running[0] = running_integrals(new, grid, cfg.params, running[0])
        update_repr_probe(probe, new, dt, grid, cfg.params)

    assert len(rows) == 11
    for k, row in enumerate(rows):
        if k:
            state = advance(state, row["t"], grid, cfg.params, cfg.ctl,
                            on_step=step)
        assert running[0].V == dissipation_functional(state, grid,
                                                      cfg.params), row["t"]
        for rec in (sample_energy(state, grid, cfg.params, running[0]),
                    sample_bounds(state, grid, running[0])):
            for name, value in asdict(rec).items():
                assert row[name] == value, (row["t"], name)
        assert row["Y_probe"] == probe.Y, row["t"]
        _, _, relerr = reconstruct_v(probe, state, cfg.params)
        assert row["repr_relerr"] == relerr, row["t"]


def _verdict_records(first, last):
    # eleven samples over [0, 10]: ninf_u and each gradient norm read
    # first at t = 0 and last after it; everything else is at rest
    series = {name: [0.0] * 11 for name in SERIES_COLUMNS}
    series["t"] = [float(k) for k in range(11)]
    for name in ("vmin", "vmax", "thmin", "thmax"):
        series[name] = [1.0] * 11
    for name in ("ninf_u", "g2_vx", "g2_ux", "g2_thx"):
        series[name] = [first] + [last] * 10
    return series, decay_report(series)


@pytest.mark.parametrize("first, last, measured, passed", [
    (0.0, 0.0, "identically zero", True),
    (0.0, 0.5, "undefined (initial zero)", False),
    (1.0, 0.05, 0.05, True),
    (1.0, 0.5, 0.5, False),
])
def test_run_verdicts_decay_ratios(first, last, measured, passed):
    """decay_u and decay_grad label a zero initial norm the same way: a
    final norm that is zero too passes as "identically zero", any other
    fails as "undefined (initial zero)"; otherwise the ratio is judged."""
    series, decay = _verdict_records(first, last)
    verdicts = harness._run_verdicts(THRESHOLDS, JensenBand(0.0, 1.0, 1.0),
                                     decay, series, 1.0, 1.0, 0.0)
    assert list(verdicts) == [
        "energy_inequality", "jensen_band", "representation", "y_slope",
        "decay_u", "decay_grad", "positivity", "stabilization", "plateaus",
        "farfield"]
    for name, limit in (("decay_u", THRESHOLDS["uinf_ratio"]),
                        ("decay_grad", THRESHOLDS["grad_ratio"])):
        v = verdicts[name]
        assert v["pass"] is passed, name
        assert v["threshold"] == limit, name
        if isinstance(measured, str):
            assert v["measured"] == measured, name
        else:
            assert v["measured"] == pytest.approx(measured, rel=1e-12), name


def test_mms_run_looks_up_step_imex_every_step(monkeypatch):
    """The MMS study steps through the harness module's step_imex, so a
    wrapper there sees each of its steps."""
    calls = []
    inner = harness.step_imex

    def counted(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(harness, "step_imex", counted)
    state, _ = harness._mms_run(40, 0.03, 0.1, MmsProfile(), Params())
    assert state.t == 0.1
    assert len(calls) == 4
    assert sum(calls) == pytest.approx(0.1, rel=1e-15)


def test_cli_mms_reads_order_windows(monkeypatch, capsys):
    """nslag mms judges the orders by THRESHOLDS' windows, as c02 does."""
    canned = {"spatial": {"orders": [2.0, 2.0]},
              "temporal": {"orders": [1.0, 1.0]}}
    monkeypatch.setattr(cli, "mms_convergence",
                        lambda levels, base_cells: canned)
    assert cli_main(["mms"]) == 0
    monkeypatch.setitem(THRESHOLDS, "spatial_order", (2.5, 3.0))
    assert cli_main(["mms"]) == 1
    monkeypatch.setitem(THRESHOLDS, "spatial_order", (1.9, 2.1))
    monkeypatch.setitem(THRESHOLDS, "temporal_order", (0.5, 0.9))
    assert cli_main(["mms"]) == 1


def test_sweep_outputs_keyed_and_sorted(tmp_path):
    cfg = _quick_cfg(tmp_path, n_cells=100, t_final=6.0)
    reports = sweep(cfg, [2.5, 0.5])
    assert list(reports) == [0.5, 2.5]
    for beta in (0.5, 2.5):
        assert os.path.exists(str(tmp_path / f"series_beta{beta:g}.csv"))
        assert os.path.exists(str(tmp_path / f"report_beta{beta:g}.json"))
        assert reports[beta].config["physics.beta"] == beta


def test_sweep_order_independent(tmp_path, monkeypatch):
    def strip(report):
        d = report.to_dict()
        d.pop("wall_seconds")
        return d

    cfg = _quick_cfg(tmp_path, n_cells=100, t_final=6.0)
    monkeypatch.setenv("NSLAG_THREADS", "1")
    serial = {b: strip(r) for b, r in sweep(cfg, [1.0, 0.5]).items()}
    monkeypatch.setenv("NSLAG_THREADS", "2")
    parallel = {b: strip(r) for b, r in sweep(cfg, [0.5, 1.0]).items()}
    assert serial == parallel


def _fail_step(state, t_target, *args, **kwargs):
    raise StepFailure("step size underflowed", state, 1e-13)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched advance reaches workers by fork")
def test_parallel_sweep_step_failure_reaches_caller(tmp_path, monkeypatch):
    """A worker's StepFailure crosses the process pool intact: the caller
    gets the failure with its snapshot path, not BrokenProcessPool."""
    cfg = _quick_cfg(tmp_path, n_cells=100, t_final=6.0)
    monkeypatch.setattr(harness, "advance", _fail_step)
    monkeypatch.setenv("NSLAG_THREADS", "2")
    with pytest.raises(StepFailure) as err:
        sweep(cfg, [1.0, 0.5])
    snap = str(tmp_path / "report_beta0.5.json.failed_state.txt")
    assert err.value.snapshot_path == snap and os.path.exists(snap)
    assert err.value.dt == 1e-13 and err.value.state.t == 0.0


def test_acceptance_empty_criteria_vacuous(tmp_path):
    out = tmp_path / "acc.json"
    report = acceptance_suite(criteria=[], out_path=str(out))
    assert report["all_pass"] and "warning" in report
    assert json.loads(out.read_text())["criteria"] == {}


def test_acceptance_unknown_criterion():
    with pytest.raises(ConfigError):
        acceptance_suite(criteria=[12])


def test_acceptance_unknown_threshold():
    with pytest.raises(ConfigError):
        acceptance_suite(criteria=[10], overrides={"bogus": 1.0})


def test_acceptance_single_cheap_criterion(tmp_path):
    report = acceptance_suite(criteria=[10],
                              out_path=str(tmp_path / "acc.json"))
    entry = report["criteria"]["c10_oracle_agreement"]
    assert entry["pass"]
    assert entry["measured"]["tridiag"] <= 1e-10
    assert entry["measured"]["quadrature"] <= 1e-12


def test_acceptance_zero_thresholds_force_failure(tmp_path):
    """Tightening the energy allowance to zero must flip the verdict."""
    cfg = _quick_cfg(tmp_path, n_cells=250, t_final=10.0)
    report = acceptance_suite(
        cfg, criteria=[3],
        overrides={"energy_margin_rel": 0.0, "energy_margin_abs": 0.0},
        out_path=str(tmp_path / "acc.json"))
    assert not report["all_pass"]
    assert not report["criteria"]["c03_energy_inequality"]["pass"]


def test_cli_run_equilibrium_exit_zero(tmp_path, capsys):
    cfg_path = tmp_path / "eq.cfg"
    cfg_path.write_text(
        "grid.cells = 250\nic.kind = equilibrium\nrun.t_final = 10\n"
        f"out.series = {tmp_path}/s.csv\nout.report = {tmp_path}/r.json\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


def test_cli_unknown_key_exit_two(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("grid.cellz = 5\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert "grid.cellz" in capsys.readouterr().err


def test_cli_reports_diagnostics_error(tmp_path, capsys):
    """Too few samples for the decay report: exit 2, named as such."""
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text(
        "grid.cells = 100\nrun.t_final = 1\nrun.sample_dt = 0.5\n"
        f"out.series = {tmp_path}/s.csv\nout.report = {tmp_path}/r.json\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("diagnostics error: need at least 10 samples")


def test_cli_sweep_aggregate(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NSLAG_THREADS", "1")
    monkeypatch.chdir(tmp_path)
    code = cli_main(["sweep", "--config", _tiny_config_file(tmp_path),
                     "--beta", "0.5,1",
                     "--out", str(tmp_path / "agg.json")])
    assert code == 0
    agg = json.loads((tmp_path / "agg.json").read_text())
    assert list(agg) == ["0.5", "1"]
    assert all(entry["all_pass"] for entry in agg.values())


def test_cli_check_subset_exit_zero(tmp_path, capsys):
    assert cli_main(["check", "--criteria", "10",
                     "--out", str(tmp_path / "a.json")]) == 0
    assert "c10_oracle_agreement" in capsys.readouterr().out


def test_python_m_nslag_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "nslag", "write-config",
         str(tmp_path / "d.cfg")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert (config_to_dict(load_config(str(tmp_path / "d.cfg")))
            == config_to_dict(default_config()))


def test_cli_entry_point_installed(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nslag.cli", "write-config",
         str(tmp_path / "d.cfg")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (config_to_dict(load_config(str(tmp_path / "d.cfg")))
            == config_to_dict(default_config()))


def _tiny_config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(
        "grid.cells = 100\nic.kind = equilibrium\nrun.t_final = 6\n"
        f"out.series = {tmp_path}/s.csv\nout.report = {tmp_path}/r.json\n")
    return str(path)


@pytest.mark.parametrize("argv, flag", [
    (["check", "--criteria", "x"], "--criteria"),
    (["check", "--criteria", "1,,2.5"], "--criteria"),
    (["sweep", "--beta", "0.5,abc"], "--beta"),
])
def test_cli_bad_list_value_exit_two(tmp_path, capsys, argv, flag):
    """A malformed comma list is a configuration error: exit 2, one line
    naming the flag."""
    code = cli_main(argv + ["--config", _tiny_config_file(tmp_path),
                            "--out", str(tmp_path / "out.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flag in err


def test_cli_bad_thread_count_exit_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NSLAG_THREADS", "two")
    code = cli_main(["sweep", "--config", _tiny_config_file(tmp_path),
                     "--beta", "0.5,1", "--out", str(tmp_path / "agg.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "NSLAG_THREADS" in err


def test_cli_step_failure_names_snapshot(tmp_path, monkeypatch, capsys):
    """A step failure exits 1 and names the snapshot of the failed state,
    which the run wrote."""
    def fail(state, t_target, *args, **kwargs):
        raise StepFailure("step size underflowed", state, 1e-13)

    monkeypatch.setattr(harness, "advance", fail)
    assert cli_main(["run", "--config", _tiny_config_file(tmp_path)]) == 1
    snap = f"{tmp_path}/r.json.failed_state.txt"
    assert snap in capsys.readouterr().err
    assert os.path.exists(snap)


def test_benchmark_hook_names_resolve():
    """Every (module, attribute) that the benchmark's span tracer wraps
    resolves on nslag; the list is read from perfbench/spans.py, not
    imported."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS"
                           for t in node.targets))
    sites = [site for _, group in targets for site in group]
    assert sites
    for mod, attr in sites:
        module = importlib.import_module(f"nslag.{mod}")
        assert callable(getattr(module, attr, None)), (mod, attr)
