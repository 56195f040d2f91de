import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslag import cli, core, diagnostics, harness, stepper
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
                           config_from_dict, config_to_dict, load_config,
                           read_series, run_simulation, sweep,
                           write_config, write_snapshot)
from nslag.model import strain_rate
from nslag.stepper import StepFailure, advance


def _quick_cfg(tmp_path, **kw):
    base = dict(
        n_cells=250, t_final=10.0, sample_dt=0.5,
        ic=ICSpec(kind="bump", amp_v=0.2, amp_u=0.2, amp_theta=0.2,
                  center=6.0, width=1.0),
        series_path=str(tmp_path / "series.csv"),
        report_path=str(tmp_path / "report.json"))
    base.update(kw)
    return replace(RunConfig(), **base)


def test_default_config_values():
    cfg = RunConfig()
    assert cfg.params == Params()
    assert (cfg.length, cfg.n_cells) == (50.0, 2000)
    assert cfg.ic.kind == "bump"
    assert (cfg.t_final, cfg.sample_dt) == (100.0, 0.5)
    assert cfg.series_path == "series.csv"
    assert cfg.report_path == "report.json"


def test_minimal_file_takes_defaults(tmp_path):
    path = tmp_path / "one.cfg"
    path.write_text("physics.beta = 1\n")
    cfg = load_config(str(path))
    assert cfg == RunConfig()


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


def _run_refuses(cfg, message, tmp_path):
    """run_simulation(cfg) raises a ConfigError matching message before it
    writes a file: the listing of tmp_path is unchanged."""
    before = sorted(tmp_path.iterdir())
    with pytest.raises(ConfigError, match=message) as err:
        run_simulation(cfg)
    assert sorted(tmp_path.iterdir()) == before
    return err.value


def test_load_config_validates_named_key(tmp_path, monkeypatch):
    """A value that only the run's set-up refuses loads; the run refuses
    it naming its key."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "bad.cfg"
    path.write_text("grid.cells = -5\n")
    _run_refuses(load_config(str(path)), r"grid\.cells", tmp_path)


def test_load_config_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("physics.mu = fast\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:1"):
        load_config(str(path))


def test_load_config_rejects_repeated_key(tmp_path):
    """A key given twice is refused, naming both lines, not settled by
    the last one."""
    path = tmp_path / "bad.cfg"
    path.write_text("grid.cells = 100\n# again\ngrid.cells = 200\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:3: config key "
                       r"'grid\.cells' already given at line 1"):
        load_config(str(path))


@pytest.mark.parametrize("key", ["out.series", "out.report"])
def test_config_refuses_output_that_is_a_directory(tmp_path, monkeypatch,
                                                   key):
    monkeypatch.chdir(tmp_path)
    message = f"{key} = .*: is a directory"
    _run_refuses(config_from_dict({key: str(tmp_path)}), message, tmp_path)
    path = tmp_path / "dir.cfg"
    path.write_text(f"{key} = {tmp_path}\n")
    _run_refuses(load_config(str(path)), message, tmp_path)


@pytest.mark.parametrize("series, report", [("same.txt", "same.txt"),
                                            ("./x/../s.csv", "s.csv")])
def test_config_refuses_series_and_report_in_one_file(tmp_path, monkeypatch,
                                                      series, report):
    """out.series and out.report that resolve to one file are refused, the
    error naming both keys: the report would overwrite the series."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x").mkdir()
    message = (f"out.series = {re.escape(series)} and "
               f"out.report = {re.escape(report)} name one file")
    _run_refuses(config_from_dict({"out.series": series,
                                   "out.report": report}), message, tmp_path)
    path = tmp_path / "one.cfg"
    path.write_text(f"out.series = {series}\nout.report = {report}\n")
    _run_refuses(load_config(str(path)), message, tmp_path)


def test_config_refuses_output_on_the_failure_snapshot(tmp_path,
                                                      monkeypatch):
    """A run writes the state a step failed at to
    <out.report>.failed_state.txt: a series of that name, or a directory
    there, is refused before the run writes a file."""
    monkeypatch.chdir(tmp_path)
    snap = "r.json.failed_state.txt"
    message = f"out.series = {re.escape(snap)} and failure snapshot = " \
              f"{re.escape(snap)} name one file"
    _run_refuses(config_from_dict({"out.series": snap,
                                   "out.report": "r.json"}), message, tmp_path)
    path = tmp_path / "snap.cfg"
    path.write_text(f"out.series = {snap}\nout.report = r.json\n")
    _run_refuses(load_config(str(path)), message, tmp_path)
    (tmp_path / snap).mkdir()
    _run_refuses(config_from_dict({"out.report": "r.json"}),
                 f"failure snapshot = {re.escape(snap)}: is a directory",
                 tmp_path)


def test_config_round_trip(tmp_path):
    first = tmp_path / "a.cfg"
    second = tmp_path / "b.cfg"
    write_config(RunConfig(), str(first))
    cfg = load_config(str(first))
    write_config(cfg, str(second))
    assert first.read_text() == second.read_text()
    assert load_config(str(second)) == cfg


def test_grid_must_resolve_unit_intervals(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run_refuses(config_from_dict({"grid.length": 50.0, "grid.cells": 120}),
                 "unit", tmp_path)


def test_config_rejects_bad_far_length(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run_refuses(config_from_dict({"grid.far_length": 40.0}),
                 r"grid\.far_length", tmp_path)
    _run_refuses(config_from_dict({"grid.far_length": 100.5}),
                 r"whole number", tmp_path)
    cfg = config_from_dict({"grid.far_length": 50.0})
    assert harness._set_up(cfg)[0] == build_grid(50.0, 2000)


def test_config_rejects_nonpositive_horizon(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run_refuses(config_from_dict({"run.t_final": 0.0}), r"t_final",
                 tmp_path)


def test_config_requires_enough_samples(tmp_path, monkeypatch):
    """The run must take at least the decay report's MIN_SAMPLES samples
    and at most MAX_SAMPLES, the initial one included.  The count is
    computed, not iterated, so a tiny cadence is cheap to reject."""
    monkeypatch.chdir(tmp_path)

    def sampled(t_final, sample_dt):
        return config_from_dict({"run.t_final": t_final,
                                 "run.sample_dt": sample_dt})

    n = diagnostics.MIN_SAMPLES
    assert harness._set_up(sampled(n - 1.0, 1.0))
    _run_refuses(sampled(n - 2.0, 1.0),
                 rf"run\.sample_dt = 1\.0 gives {n - 1} samples", tmp_path)
    cap = diagnostics.MAX_SAMPLES
    assert harness._set_up(sampled(cap - 1.0, 1.0))
    _run_refuses(sampled(float(cap), 1.0),
                 rf"gives {cap + 1} samples .* at most {cap}", tmp_path)
    assert harness._set_up(sampled(100.0, 0.01))
    for dt in (1e-9, 1e-300):
        _run_refuses(sampled(100.0, dt),
                     rf"run\.sample_dt = {dt} gives \d+ samples", tmp_path)


def test_config_rejects_infinite_horizon(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _run_refuses(config_from_dict({"run.t_final": math.inf}),
                 r"run\.t_final", tmp_path)
    cfg_path = tmp_path / "inf.cfg"
    cfg_path.write_text("run.t_final = inf\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "run.t_final" in err


def test_cli_rejects_sample_count_overflow(tmp_path, capsys):
    """A cadence so fine that run.t_final / run.sample_dt overflows to inf
    is a config error naming run.sample_dt, found before any file is
    written."""
    cfg_path = tmp_path / "fine.cfg"
    cfg_path.write_text(
        f"run.sample_dt = 1e-320\nout.series = {tmp_path}/s.csv\n"
        f"out.report = {tmp_path}/r.json\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "run.sample_dt" in err
    assert sorted(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("t_final, sample_dt",
                         [("1e-320", "1e-321"), ("1e-11", "1e-13")])
def test_cli_rejects_sample_interval_below_dt_min(tmp_path, capsys, t_final,
                                                  sample_dt):
    """Samples closer than DT_MIN would hold every step below the retry
    floor: a config error naming run.sample_dt, one line, before any file
    is written."""
    cfg_path = tmp_path / "fine.cfg"
    cfg_path.write_text(
        f"ic.kind = equilibrium\ngrid.cells = 100\nrun.t_final = {t_final}\n"
        f"run.sample_dt = {sample_dt}\nout.series = {tmp_path}/s.csv\n"
        f"out.report = {tmp_path}/r.json\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: run.sample_dt = {float(sample_dt)} ")
    assert err.endswith(f", below DT_MIN = {stepper.DT_MIN}\n")
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("t_final", ["9.9999999999999", "10.0000000000001"])
def test_cli_horizon_near_a_multiple_ends_on_it(tmp_path, t_final):
    """A horizon within 1e-9 sample intervals of a multiple of
    run.sample_dt, below or above it, takes t_final for that multiple: 21
    rows ending at t_final, not a last interval of about 1e-13."""
    cfg_path = tmp_path / "near.cfg"
    cfg_path.write_text(
        f"ic.kind = equilibrium\ngrid.cells = 100\nrun.t_final = {t_final}\n"
        f"run.sample_dt = 0.5\nout.series = {tmp_path}/s.csv\n"
        f"out.report = {tmp_path}/r.json\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    times = [row["t"] for row in read_series(f"{tmp_path}/s.csv")]
    assert times == [0.5 * k for k in range(20)] + [float(t_final)]


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
    "ic.width": 1.5, "run.t_final": 30.0, "run.sample_dt": 0.25,
    "ctl.cfl_hyp": 0.3, "out.series": "s.csv", "out.report": "r.json",
}


@settings(max_examples=30, deadline=None)
@given(beta=config_floats, mu=config_floats,
       amp=st.floats(-0.5, 0.5).filter(lambda x: x != 0.3),
       cells=st.sampled_from([100, 200, 500, 1000]))
def test_config_dict_round_trip(beta, mu, amp, cells):
    values = dict(NON_DEFAULT)
    values.update({"physics.beta": beta, "physics.mu": mu, "ic.amp_u": amp,
                   "grid.cells": cells})
    defaults = config_to_dict(RunConfig())
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
    cfg = replace(RunConfig(), far_length=50.0,
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


@pytest.mark.parametrize("key", ["out.series", "out.report"])
def test_cli_run_refuses_empty_output_path(tmp_path, monkeypatch, capsys,
                                           key):
    """An output key given no path names no file: run exits 2 with one
    config error line naming the key, before any step, writing no file."""
    _forbid_steps(monkeypatch)
    monkeypatch.chdir(tmp_path)
    paths = {"out.series": "s.csv", "out.report": "r.json", key: ""}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in paths.items()))
    assert cli_main(["run", "--config", str(cfg)]) == 2
    out = capsys.readouterr()
    assert out.err == f"config error: {key} = '': names no file\n"
    assert out.out == ""
    assert sorted(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("argv", [["mms"], ["check", "--criteria", "10"]])
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


@pytest.mark.parametrize("lines", [
    ["out.report = adir"],
    ["out.series = adir"],
    ["out.series = same.txt", "out.report = same.txt"],
    ["out.series = ./x/../s.csv", "out.report = s.csv"],
    ["grid.cells = 100", "grid.cells = 200"],
], ids=["report_dir", "series_dir", "one_file", "one_file_spelled_apart",
        "repeated_key"])
def test_cli_run_refuses_unusable_config_before_work(tmp_path, monkeypatch,
                                                     capsys, lines):
    """An output that cannot hold its file, or a key given twice, is one
    config error line before any step, and no file is written."""
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(stepper, "step_imex", no_step)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "x").mkdir()
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("".join(f"{line}\n" for line in lines))
    before = sorted(tmp_path.iterdir())
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("config error:") and out.err.count("\n") == 1
    assert out.out == ""
    assert sorted(tmp_path.iterdir()) == before
    assert list((tmp_path / "adir").iterdir()) == []


@pytest.mark.parametrize("argv", [["check"], ["mms"]])
def test_cli_out_directory_fails_before_work(tmp_path, monkeypatch, capsys,
                                             argv):
    """--out naming a directory is a config error before c01's steps or
    the study run."""
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(harness, "step_imex", no_step)
    assert cli_main([*argv, "--out", str(tmp_path)]) == 2
    out = capsys.readouterr()
    assert out.err == f"config error: --out = {tmp_path}: is a directory\n"
    assert out.out == ""
    assert list(tmp_path.iterdir()) == []


def _forbid_steps(monkeypatch):
    # a run steps through stepper.step_imex, c01 and the MMS study through
    # harness.step_imex: with both raising, taking any step fails the test
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(stepper, "step_imex", no_step)
    monkeypatch.setattr(harness, "step_imex", no_step)


@pytest.mark.parametrize("argv", [["check", "--criteria", "10"],
                                  ["sweep", "--beta", "1"], ["mms"]],
                         ids=["check", "sweep", "mms"])
def test_cli_empty_out_fails_before_work(tmp_path, monkeypatch, capsys,
                                         argv):
    """An empty --out names no file, as an empty output key does: exit 2
    with one config error line, before any step or criterion, and no file
    written."""
    _forbid_steps(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert cli_main([*argv, "--out", ""]) == 2
    out = capsys.readouterr()
    assert out.err == "config error: --out = '': names no file\n"
    assert out.out == ""
    assert list(tmp_path.iterdir()) == []


def _keyed_outputs_config(tmp_path):
    # a 100-cell equilibrium config writing s.csv and r.json in tmp_path
    (tmp_path / "tiny.cfg").write_text(
        "grid.cells = 100\nic.kind = equilibrium\nrun.t_final = 6\n"
        "out.series = s.csv\nout.report = r.json\n")


@pytest.mark.parametrize("argv, blocked", [
    (["sweep", "--beta", "0.5,1"], "out.series = s_beta1.csv"),
    (["check", "--criteria", "1"], "out.report = r_equilibrium.json"),
], ids=["sweep", "check"])
def test_cli_checks_every_keyed_run_first(tmp_path, monkeypatch, capsys,
                                          argv, blocked):
    """A keyed output that cannot be written, here a directory, stops sweep
    or check before the first run or criterion: one config error line,
    and no series, report or aggregate written."""
    _forbid_steps(monkeypatch)
    monkeypatch.chdir(tmp_path)
    _keyed_outputs_config(tmp_path)
    (tmp_path / blocked.partition(" = ")[2]).mkdir()
    before = sorted(tmp_path.iterdir())
    assert cli_main([*argv, "--config", "tiny.cfg"]) == 2
    out = capsys.readouterr()
    assert out.err == f"config error: {blocked}: is a directory\n"
    assert out.out == ""
    assert sorted(tmp_path.iterdir()) == before


def test_cli_sweep_and_check_ignore_the_unkeyed_outputs(tmp_path,
                                                       monkeypatch, capsys):
    """sweep and check write only their keyed runs' files, so an out.report
    naming an existing directory does not stop them: the sweep writes
    <out.report>_beta1, and check's oracle criterion passes."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "results").mkdir()
    (tmp_path / "c.cfg").write_text(
        "grid.cells = 100\ngrid.far_length = 50\nrun.t_final = 5\n"
        "out.series = s.csv\nout.report = results\n")
    assert cli_main(["sweep", "--config", "c.cfg", "--beta", "1"]) != 2
    assert json.loads((tmp_path / "results_beta1").read_text())["n_steps"]
    assert (tmp_path / "s_beta1.csv").exists()
    assert cli_main(["check", "--criteria", "10", "--config", "c.cfg"]) == 0
    assert "config error" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, out, written", [
    (["sweep", "--beta", "1", "--config", "tiny.cfg"], "r_beta1.json",
     "out.report = r_beta1.json"),
    (["sweep", "--beta", "0.5,1", "--config", "tiny.cfg"],
     "./x/../s_beta0.5.csv", "out.series = s_beta0.5.csv"),
    (["check", "--criteria", "8"], "report_equilibrium.json",
     "out.report = report_equilibrium.json"),
    (["check", "--criteria", "10", "--config", "tiny.cfg"], "s_beta2.5.csv",
     "out.series = s_beta2.5.csv"),
    (["check"], "report_equilibrium.json.failed_state.txt",
     "failure snapshot = report_equilibrium.json.failed_state.txt"),
], ids=["sweep_report", "sweep_series_spelled_apart",
        "check_equilibrium_report", "check_sweep_series",
        "check_equilibrium_snapshot"])
def test_cli_out_may_not_name_a_run_file(tmp_path, monkeypatch, capsys,
                                         argv, out, written):
    """--out of sweep or check naming, however spelled, a file that one of
    the command's runs may write (its series, its report or the snapshot of
    a failed step) is one config error line naming both paths, before any
    step, and no file is written."""
    _forbid_steps(monkeypatch)
    monkeypatch.chdir(tmp_path)
    _keyed_outputs_config(tmp_path)
    (tmp_path / "x").mkdir()
    before = sorted(tmp_path.iterdir())
    assert cli_main([*argv, "--out", out]) == 2
    err = capsys.readouterr()
    assert err.err == f"config error: {written} and --out = {out} name one " \
                      f"file\n"
    assert err.out == ""
    assert sorted(tmp_path.iterdir()) == before


def test_cli_sweep_refuses_runs_sharing_a_file(tmp_path, monkeypatch, capsys):
    """Keyed by the exponent, beta = 0's series and beta = 0.5's report
    are both R_beta0.5 with out.series = R.5 and out.report = R: the sweep
    stops before any step with one config error line, writing no file."""
    _forbid_steps(monkeypatch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.cfg").write_text(
        "grid.cells = 100\nic.kind = equilibrium\nrun.t_final = 6\n"
        "out.series = R.5\nout.report = R\n")
    before = sorted(tmp_path.iterdir())
    assert cli_main(["sweep", "--config", "r.cfg", "--beta", "0,0.5"]) == 2
    out = capsys.readouterr()
    assert out.err == ("config error: out.series = R_beta0.5 and out.report "
                       "= R_beta0.5 name one file\n")
    assert out.out == ""
    assert sorted(tmp_path.iterdir()) == before


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
                ic=RunConfig().ic))
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
    return replace(RunConfig(), t_final=1.0, sample_dt=0.1,
                   series_path=str(tmp_path / "series.csv"),
                   report_path=str(tmp_path / "report.json"))


def test_run_hands_step_strain_rate_to_running_integrals(tmp_path,
                                                         monkeypatch):
    """The running integrals read each state's strain rate, bit for bit
    the strain rate of its velocity; a state a step made carries in the
    step's own."""
    seen = []
    inner = harness.running_integrals

    def checked(s, grid, params, prev=None):
        handed = s.ux
        row = inner(s, grid, params, prev)
        seen.append((prev is None or handed is s.ux) and s.ux.tobytes()
                    == strain_rate(s.u, grid.dx).tobytes())
        return row

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

    for module in (core, stepper):
        monkeypatch.setattr(module, "strain_rate", counted)
    report = run_simulation(_short_default_cfg(tmp_path))
    assert report.n_steps > 100
    assert len(calls) == report.n_steps + 1


def test_run_evaluates_conduction_numerator_once_per_step(tmp_path,
                                                         monkeypatch):
    """theta**beta once per accepted step, plus the initial state's: the
    step that makes a state computes its numerator, and the dissipation of
    that state and the step from it read it."""
    calls = []
    inner = core.conduction_numerator

    def counted(theta, params):
        calls.append(params)
        return inner(theta, params)

    monkeypatch.setattr(core, "conduction_numerator", counted)
    report = run_simulation(_short_default_cfg(tmp_path))
    assert report.n_steps > 100
    assert len(calls) == report.n_steps + 1


def test_run_sets_up_initial_data_once(tmp_path, monkeypatch, capsys):
    """run_simulation builds the initial data once: the state it checks is
    the state it runs from.  So does nslag run --config, since loading the
    config sets up no run."""
    calls = []

    def counted(grid, spec):
        calls.append(spec)
        return make_initial_data(grid, spec)

    monkeypatch.setattr(harness, "make_initial_data", counted)
    run_simulation(_quick_cfg(tmp_path, n_cells=100, t_final=5.0))
    assert len(calls) == 1
    calls.clear()
    assert cli_main(["run", "--config", _tiny_config_file(tmp_path)]) == 0
    assert len(calls) == 1


def test_row_sources_partition_series_columns():
    """Every series column comes from exactly one of the four evaluators
    a row joins: their key sets are pairwise disjoint, and together they
    are the schema."""
    cfg = RunConfig()
    grid = build_grid(cfg.length, cfg.n_cells, cfg.far_length)
    state = make_initial_data(grid, cfg.ic)
    probe = make_repr_probe(state, grid, cfg.params, 12)   # floor(L/4)
    sources = [set(running_integrals(state, grid, cfg.params)),
               set(sample_energy(state, grid, cfg.params)),
               set(sample_bounds(state, grid)),
               set(reconstruct_v(probe, state, cfg.params))]
    for i, a in enumerate(sources):
        for b in sources[i + 1:]:
            assert not a & b, a & b
    assert set().union(*sources) == set(SERIES_COLUMNS)


@pytest.mark.parametrize("far_length", [50.0, 225.0])
@pytest.mark.parametrize("beta", [0.5, 2.5])
def test_run_records_match_chained_samples(tmp_path, far_length, beta):
    """A run advances only the running integrals every step and evaluates
    the full row at sample times.  Each row of its series must equal, key
    for key and bit for bit, running_integrals chained through every
    accepted step joined at the sample times to sample_energy,
    sample_bounds and reconstruct_v of the probe advanced by
    update_repr_probe, on a uniform and on a graded grid.  The chained
    dissipation must equal a fresh evaluation at every sample, and the
    representation verdict must judge the series' largest reconstruction
    error."""
    cfg = _quick_cfg(tmp_path, n_cells=100, t_final=5.0,
                     far_length=far_length, params=Params(beta=beta))
    report = run_simulation(cfg)
    rows = read_series(cfg.series_path)

    grid = build_grid(cfg.length, cfg.n_cells, cfg.far_length)
    state = make_initial_data(grid, cfg.ic)
    running = [running_integrals(state, grid, cfg.params)]
    probe = make_repr_probe(state, grid, cfg.params, 12)   # floor(L/4)

    def step(prev, new, dt):
        running[0] = running_integrals(new, grid, cfg.params, running[0])
        update_repr_probe(probe, new, dt, grid, cfg.params)

    assert len(rows) == 11
    for k, row in enumerate(rows):
        if k:
            state = advance(state, row["t"], grid, cfg.params, cfg.ctl,
                            on_step=step)
        assert running[0]["V"] == dissipation_functional(
            state, grid, cfg.params), row["t"]
        chained = {**running[0], **sample_energy(state, grid, cfg.params),
                   **sample_bounds(state, grid),
                   **reconstruct_v(probe, state, cfg.params)}
        assert sorted(chained) == sorted(row)
        for name, value in row.items():
            assert chained[name] == value, (row["t"], name)
    assert report.verdicts["representation"]["measured"] == max(
        row["repr_relerr"] for row in rows)


def _verdict_records(first, last):
    # eleven samples over [0, 10]: ninf_u and each gradient norm read
    # first at t = 0 and last after it; everything else is at rest, and
    # ln Y falls at rate 1
    series = {name: [0.0] * 11 for name in SERIES_COLUMNS}
    series["t"] = [float(k) for k in range(11)]
    for name in ("vmin", "vmax", "thmin", "thmax"):
        series[name] = [1.0] * 11
    for name in ("ninf_u", "g2_vx", "g2_ux", "g2_thx"):
        series[name] = [first] + [last] * 10
    logy = (series["t"], [-t for t in series["t"]])
    return series, decay_report(series, logy)


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
    verdicts = harness._run_verdicts(JensenBand(0.0, 1.0, 1.0), decay,
                                     series, 1.0, 1.0)
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
    state = harness._mms_run(build_grid(20.0, 40), 0.12)
    assert state.t == 0.5
    assert len(calls) == 5
    assert sum(calls) == pytest.approx(0.5, rel=1e-15)


def test_cli_mms_reads_order_windows(monkeypatch, capsys):
    """nslag mms judges the orders by THRESHOLDS' windows, as c02 does."""
    canned = {"spatial": {"orders": [2.0, 2.0]},
              "temporal": {"orders": [1.0, 1.0]}}
    monkeypatch.setattr(cli, "mms_convergence", lambda: canned)
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


def test_sweep_order_independent(tmp_path):
    """The input order of the exponents changes neither the reports nor
    the files: each run is keyed by its own beta."""
    def outputs(order):
        reports = sweep(cfg, order)
        files = {p.name: p.read_text() for p in tmp_path.glob("series_*")}
        return [{**r.to_dict(), "wall_seconds": None}
                for r in reports.values()], files

    cfg = _quick_cfg(tmp_path, n_cells=100, t_final=6.0)
    assert outputs([1.0, 0.5]) == outputs([0.5, 1.0, 0.5])


def _fail_step(state, t_target, *args, **kwargs):
    raise StepFailure("step size underflowed", state)


def test_sweep_step_failure_reaches_caller(tmp_path, monkeypatch):
    """A run's StepFailure ends the sweep at the first exponent and reaches
    the caller with its snapshot path, its message and the last good
    state."""
    cfg = _quick_cfg(tmp_path, n_cells=100, t_final=6.0)
    monkeypatch.setattr(harness, "advance", _fail_step)
    with pytest.raises(StepFailure) as err:
        sweep(cfg, [1.0, 0.5])
    snap = str(tmp_path / "report_beta0.5.json.failed_state.txt")
    assert err.value.snapshot_path == snap and os.path.exists(snap)
    assert str(err.value) == "step size underflowed"
    assert err.value.state.t == 0.0
    assert not list(tmp_path.glob("*beta1*"))


def test_acceptance_empty_criteria_vacuous(tmp_path):
    """An empty criterion list would pass vacuously: it is refused before
    any report is written."""
    out = tmp_path / "acc.json"
    with pytest.raises(ConfigError):
        acceptance_suite(RunConfig(), str(out), criteria=[])
    assert not out.exists()


def test_acceptance_unknown_criterion(tmp_path):
    out = tmp_path / "acc.json"
    with pytest.raises(ConfigError):
        acceptance_suite(RunConfig(), str(out), criteria=[12])
    assert not out.exists()


def test_acceptance_single_cheap_criterion(tmp_path):
    out = tmp_path / "acc.json"
    report = acceptance_suite(RunConfig(), str(out), criteria=[10])
    assert json.loads(out.read_text()) == report
    entry = report["criteria"]["c10_oracle_agreement"]
    assert entry["pass"]
    assert entry["measured"]["tridiag"] <= 1e-10
    assert entry["measured"]["quadrature"] <= 1e-12


def test_acceptance_subset_charges_sweep_to_its_first_reader(tmp_path):
    """The beta sweep is made when a criterion first reads it, and its time
    counts in that criterion's seconds, here c04's; the equilibrium run,
    which c04 does not read, is not made."""
    cfg = _quick_cfg(tmp_path, n_cells=100, t_final=6.0)
    report = acceptance_suite(cfg, str(tmp_path / "acc.json"),
                              criteria=[4])
    walls = [json.loads(p.read_text())["wall_seconds"]
             for p in tmp_path.glob("report_beta*.json")]
    assert len(walls) == 3
    # seconds are rounded to the millisecond
    assert report["criteria"]["c04_bound_stabilization"]["seconds"] \
        >= sum(walls) - 5e-4
    assert not (tmp_path / "report_equilibrium.json").exists()


def test_acceptance_sweeps_once_through_harness_sweep(tmp_path,
                                                     monkeypatch):
    """The suite runs its beta sweep through nslag.harness.sweep, once,
    however many criteria read it: the benchmark's harness.sweep span
    wraps that name."""
    calls = []
    inner = harness.sweep

    def counted(cfg, betas, *args, **kwargs):
        calls.append(tuple(betas))
        return inner(cfg, betas, *args, **kwargs)

    monkeypatch.setattr(harness, "sweep", counted)
    cfg = _quick_cfg(tmp_path, n_cells=100, t_final=6.0)
    report = acceptance_suite(cfg, str(tmp_path / "acc.json"),
                              criteria=[4, 5, 9])
    assert len(report["criteria"]) == 3
    assert calls == [(0.5, 1.0, 2.5)]


def test_acceptance_patched_threshold_turns_c11_red(tmp_path, monkeypatch):
    """The sweep's run verdicts and c11 read THRESHOLDS when they judge: a
    far-field tolerance of zero turns c11 red, and it reports that zero.
    At the default tolerance this sweep passes c11 at about 2e-15."""
    monkeypatch.setitem(THRESHOLDS, "farfield_tol", 0.0)
    cfg = _quick_cfg(tmp_path, n_cells=250, t_final=10.0)
    report = acceptance_suite(cfg, str(tmp_path / "acc.json"),
                              criteria=[11])
    entry = report["criteria"]["c11_farfield_fidelity"]
    assert not report["all_pass"] and not entry["pass"]
    assert entry["threshold"] == 0.0
    assert all(0.0 < dev < 1e-12 for dev in entry["measured"].values())


def test_cli_run_equilibrium_exit_zero(tmp_path, capsys):
    cfg_path = tmp_path / "eq.cfg"
    cfg_path.write_text(
        "grid.cells = 250\nic.kind = equilibrium\nrun.t_final = 10\n"
        f"out.series = {tmp_path}/s.csv\nout.report = {tmp_path}/r.json\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


def test_cli_run_large_initial_energy(tmp_path):
    """ic.amp_u = 20 passes validation and gives E(0) of about 150, whose
    lower entropy root is about 1e-66: the run judges its verdicts and
    writes its series and report."""
    cfg_path = tmp_path / "hot.cfg"
    cfg_path.write_text(
        "grid.cells = 100\nrun.t_final = 6\nic.amp_u = 20\n"
        f"out.series = {tmp_path}/s.csv\nout.report = {tmp_path}/r.json\n")
    assert cli_main(["run", "--config", str(cfg_path)]) in (0, 1)
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["e0"] > 100.0 and 0.0 < report["alpha1"] < 1e-50
    assert (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("argv", [
    ["run"], ["sweep", "--beta", "0.5,1"], ["check", "--criteria", "3"],
    ["check"]])
def test_cli_initial_energy_beyond_float_range_exit_two(tmp_path, capsys,
                                                        monkeypatch, argv):
    """ic.amp_u = 60 gives E(0) of about 1350, whose lower entropy root is
    below the normal floats: a configuration error naming the entropy
    level, raised before the first run or criterion, before any step (the full check
    would start with c01's) and before any file is written."""
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(harness, "step_imex", no_step)
    cfg_path = tmp_path / "hot.cfg"
    cfg_path.write_text(
        "grid.cells = 100\nic.amp_u = 60\n"
        f"out.series = {tmp_path}/s.csv\nout.report = {tmp_path}/r.json\n")
    out = ["--out", str(tmp_path / "out.json")] if argv[0] != "run" else []
    assert cli_main([*argv, "--config", str(cfg_path), *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "entropy level 1350" in err
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [cfg_path]


def test_config_refuses_initial_energy_beyond_float_range(tmp_path,
                                                          monkeypatch):
    """The entropy band of E(0) is checked before the first run."""
    monkeypatch.chdir(tmp_path)
    _run_refuses(config_from_dict({"grid.cells": 100, "ic.amp_u": 60.0}),
                 "initial data: entropy level 1350", tmp_path)


def test_probe_placement_validation(tmp_path, monkeypatch):
    """The probe sits on [floor(L/4), floor(L/4) + 1], checked before the
    first run: at grid.length = 4 that is [1, 2], one mass unit inside
    (0, 4); at 3 it is [0, 1], which touches the wall."""
    monkeypatch.chdir(tmp_path)
    rest = {"ic.kind": "equilibrium"}
    assert harness._set_up(config_from_dict(
        {**rest, "grid.length": 4.0, "grid.cells": 400}))
    message = ("grid.length = 3.0: the probe interval [floor(L/4), "
               "floor(L/4) + 1] must keep one mass unit of clearance inside "
               "(0, L), so L must be at least 4")
    err = _run_refuses(config_from_dict(
        {**rest, "grid.length": 3.0, "grid.cells": 300}),
        re.escape(message), tmp_path)
    assert str(err) == message


@pytest.mark.parametrize("key", ["grid.cellz", "ctl.dt_min", "ic.floor",
                                 "probe.interval"])
def test_cli_unknown_key_exit_two(tmp_path, capsys, key):
    """An unknown key is refused by name, ctl.dt_min, ic.floor and
    probe.interval among them: their values are constants."""
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"{key} = 5\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {cfg_path}:1: unknown config key {key!r}\n"
    assert sorted(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("line", [
    "physics.beta = nan", "ctl.cfl_hyp = 2",
    "grid.cells = 3", "grid.far_length = 50.5",
    "ic.amp_u = inf", "grid.far_length = inf", "grid.far_length = -inf",
    "grid.far_length = nan", "grid.length = inf",
    "grid.cells = 1000000000000", "grid.far_length = 10000000050"])
def test_cli_non_finite_constant_exit_two(tmp_path, capsys, line):
    """A bad value, a non-finite constant among them, is a configuration
    error: exit 2, one line naming its config key, before any file is
    written."""
    key = line.partition(" = ")[0]
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"{line}\nout.series = {tmp_path}/s.csv\n"
                        f"out.report = {tmp_path}/r.json\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{key} = " in err
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("line", ["physics.R = 1e200", "physics.R = 1e300",
                                  "ctl.cfl_hyp = 1e-20"])
def test_cli_acoustic_step_at_floor_exit_two(tmp_path, capsys, line):
    """A run whose initial acoustic step is at most DT_MIN is a
    configuration error naming ctl.cfl_hyp, physics.R and physics.cv:
    exit 2, one line, before any file is written.  Run with steps of
    DT_MIN, the huge R's step far exceeds its acoustic step and the probe
    overflows; the tiny CFL number's run ignores the number asked for."""
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(
        f"ic.kind = equilibrium\ngrid.cells = 100\nrun.t_final = 1e-9\n"
        f"run.sample_dt = 1e-10\n{line}\nout.series = {tmp_path}/s.csv\n"
        f"out.report = {tmp_path}/r.json\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ctl.cfl_hyp = ")
    assert ", physics.R = " in err and ", physics.cv = 1.0: " in err
    assert err.endswith(f"the initial acoustic step is at most DT_MIN = "
                        f"{stepper.DT_MIN}\n")
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("line", [
    "ic.width = -1.0", "ic.amp_theta = 0.95",
    "ic.kind = blob"])
def test_cli_check_bad_initial_data_exit_two(tmp_path, capsys, line):
    """Initial data that make_initial_data refuses is a configuration
    error found before the first criterion: check exits 2 before running a
    criterion, with one line naming the key, and writes no file."""
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"{line}\nout.series = {tmp_path}/s.csv\n"
                        f"out.report = {tmp_path}/r.json\n")
    out = tmp_path / "acceptance.json"
    assert cli_main(["check", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {line}: ")
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [cfg_path]


def test_cli_reports_diagnostics_error(tmp_path, capsys):
    """Too few samples for the decay report is a configuration error,
    found before the run: exit 2 naming the sampling keys, no series and
    no report written."""
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text(
        "grid.cells = 100\nrun.t_final = 1\nrun.sample_dt = 0.5\n"
        f"out.series = {tmp_path}/s.csv\nout.report = {tmp_path}/r.json\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: run.sample_dt = 0.5 gives 3 "
                          "samples over run.t_final = 1.0")
    assert f"at least {diagnostics.MIN_SAMPLES}" in err
    assert sorted(tmp_path.iterdir()) == [cfg_path]


def test_cli_sweep_aggregate(tmp_path, monkeypatch, capsys):
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
            == config_to_dict(RunConfig()))


def test_cli_import_loads_neither_scipy_linalg_nor_process_pool(tmp_path):
    """Importing the CLI loads LAPACK's extension module without importing
    scipy or scipy.linalg, and loads neither argparse nor json, which are
    imported on first use; a later import of scipy.linalg.lapack reuses the
    same module.  A two-exponent sweep runs in the one process and loads no
    process pool, whatever NSLAG_THREADS says."""
    src = Path(__file__).resolve().parents[1] / "src"
    cfg_path = _tiny_config_file(tmp_path)
    code = (
        "import sys\n"
        "import nslag.cli, nslag.stepper\n"
        "for name in ('scipy', 'scipy.linalg', 'argparse', 'json'):\n"
        "    assert name not in sys.modules, name\n"
        "assert callable(nslag.stepper.dptsv)\n"
        f"assert nslag.cli.main(['sweep', '--config', {cfg_path!r}, "
        f"'--beta', '0.5,1', '--out', {str(tmp_path / 'agg.json')!r}]) == 0\n"
        "for name in ('concurrent.futures', 'multiprocessing'):\n"
        "    assert name not in sys.modules, name\n"
        "import scipy.linalg.lapack\n"
        "assert scipy.linalg.lapack.dptsv is nslag.stepper.dptsv\n")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src), "NSLAG_THREADS": "2"})
    assert proc.returncode == 0, proc.stderr
    for beta in ("0.5", "1"):
        assert (tmp_path / f"r_beta{beta}.json").exists()


def test_cli_entry_point_installed(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nslag.cli", "write-config",
         str(tmp_path / "d.cfg")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (config_to_dict(load_config(str(tmp_path / "d.cfg")))
            == config_to_dict(RunConfig()))


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
    (["check", "--criteria", ""], "--criteria"),
    (["sweep", "--beta", ","], "--beta"),
])
def test_cli_bad_list_value_exit_two(tmp_path, capsys, argv, flag):
    """A malformed or empty comma list is a configuration error: exit 2,
    one line naming the flag."""
    code = cli_main(argv + ["--config", _tiny_config_file(tmp_path),
                            "--out", str(tmp_path / "out.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flag in err


def test_cli_sweep_rejects_shared_tag(tmp_path, capsys):
    """Two exponents that print alike would write one series, one report
    and one aggregate key: exit 2 naming --beta and both values, before
    any file is written."""
    cfg_path = _tiny_config_file(tmp_path)
    code = cli_main(["sweep", "--config", cfg_path, "--beta", "1,1.0000001",
                     "--out", str(tmp_path / "agg.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --beta")
    assert "1.0 " in err and "1.0000001" in err
    assert [str(p) for p in tmp_path.iterdir()] == [cfg_path]


@pytest.mark.parametrize("betas", ["0.5,inf", "nan,1"])
def test_cli_sweep_checks_every_exponent_first(tmp_path, capsys, betas):
    """An exponent Params refuses stops the sweep before its first run:
    exit 2 naming --beta, and no series, report or aggregate written."""
    cfg_path = _tiny_config_file(tmp_path)
    code = cli_main(["sweep", "--config", cfg_path, "--beta", betas,
                     "--out", str(tmp_path / "agg.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --beta: beta must be nonnegative")
    assert [str(p) for p in tmp_path.iterdir()] == [cfg_path]


def test_cli_step_failure_names_snapshot(tmp_path, monkeypatch, capsys):
    """A step failure exits 1 and names the snapshot of the failed state,
    which the run wrote."""
    def fail(state, t_target, *args, **kwargs):
        raise StepFailure("step size underflowed", state)

    monkeypatch.setattr(harness, "advance", fail)
    assert cli_main(["run", "--config", _tiny_config_file(tmp_path)]) == 1
    snap = f"{tmp_path}/r.json.failed_state.txt"
    assert snap in capsys.readouterr().err
    assert os.path.exists(snap)


def test_cli_failed_solve_is_a_step_failure(tmp_path, monkeypatch, capsys):
    """A solve whose ptsv info is nonzero is a rejected step like any
    other: once the retries run out, the run exits 1 with one stderr line
    naming the cause and the snapshot, which it wrote."""
    inner = stepper.dptsv
    monkeypatch.setattr(stepper, "dptsv",
                        lambda d, e, b: (*inner(d, e, b)[:3], 2))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("grid.cells = 100\nrun.t_final = 10\n")
    assert cli_main(["run", "--config", "run.cfg"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("step failure: ")
    assert err.count("at t = 0.0") == 1
    assert err.endswith("(tridiagonal solve failed: ptsv info 2); "
                        "state -> report.json.failed_state.txt\n")
    assert err.count("\n") == 1
    assert (tmp_path / "report.json.failed_state.txt").is_file()


def test_benchmark_hook_names_resolve(tmp_path, monkeypatch):
    """perfbench/spans.py, loaded by path, wraps nslag at every (module,
    attribute) it lists, and each resolves to a callable.  Installed, its
    tracer records one span per series row for each per-sample evaluator,
    which record() must call through nslag.harness.  Every wrapped name is
    restored afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {name: importlib.import_module(f"nslag.{name}")
               for name in ("cli", "harness", "stepper")}
    for _, sites in spans.TARGETS:
        for mod, attr in sites:
            fn = getattr(modules[mod], attr, None)
            assert callable(fn), (mod, attr)
            monkeypatch.setattr(modules[mod], attr, fn)
    tracer = spans.Tracer()
    tracer.install(modules)
    cfg = _quick_cfg(tmp_path, n_cells=100, t_final=5.0)
    harness.run_simulation(cfg)
    rows = len(read_series(cfg.series_path))
    totals = tracer.totals(tracer.records())
    for name in ("sample_energy", "sample_bounds", "unit_interval_averages",
                 "reconstruct_v"):
        calls, ok, _, _ = totals[f"diagnostics.{name}"]
        assert calls == ok == rows, name


def test_benchmark_set_up_resolves(tmp_path, monkeypatch):
    """perfbench/child.py, loaded by path, imports nslag and builds a
    workload's inputs outside the tracer: its set_up returns the three
    modules it wraps and a positive set-up time."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.setattr(sys, "path", [str(bench), *sys.path])
    for name in ("spans", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.chdir(tmp_path)
    spec = importlib.util.spec_from_file_location("perfbench_child",
                                                  bench / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    modules, _, seconds = child.set_up({
        "workload": "bump_default", "seed": 0, "tiny": True,
        "src": str(bench.parent / "src")})
    assert modules == {"cli": cli, "harness": harness, "stepper": stepper}
    assert seconds > 0.0
