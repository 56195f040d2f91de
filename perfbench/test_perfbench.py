"""Tests of the benchmark itself: python3 -m pytest perfbench -q

The smoke runs use --tiny inputs (N = 100, T = 20) so that the whole file
takes about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(name, trace):
    if name == "check" and trace == 0:
        pytest.skip("the traced check covers the same call")
    code, lines = bench("--workload", name, "--seed", "1", "--seconds", "1",
                        "--trace", str(trace), "--tiny")
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    detail = json.loads(lines[-2])["perfbench"]
    assert detail["gate"] == "pass"
    assert all(c["series_sha256"] for c in detail["calls"])
    # untraced calls carry the speed probe, traced ones do not
    assert all((c["probe_slices"] > 0) != c["traced"]
               for c in detail["calls"])
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["stepper.accepted_steps"] > 0
        assert metrics["stepper.rejected_steps"] == 0
        if name == "check":
            # the sweep ran in-process, so its runs' spans were recorded
            assert 0 < metrics["harness.sweep.utilisation"] <= 1
            assert metrics["diagnostics.per_step_us"] > 0
            assert metrics["model.mms_source.calls"] > 0


def fake_call(verdicts, sha="a" * 64):
    return {"traced": False, "wall_s": 1.0, "n_steps": 100,
            "peak_rss_mb": 60.0, "setup_s": 0.5, "ref_s": [0.5, 0.5],
            "error": None,
            "verdicts": verdicts, "series_sha256": {"series.csv": sha}}


def baseline(name):
    red = workloads.known_red(name)
    return {v: v not in red for v in workloads.WORKLOADS[name].verdicts}


def test_gate_passes_baseline_and_green_known_red():
    assert run.gate("bump_default", False,
                    [fake_call(baseline("bump_default"))]) == []
    fixed = dict(baseline("check"), c11_farfield_fidelity=True)
    assert run.gate("check", False, [fake_call(fixed)]) == []


def test_gate_trips_on_regressed_verdict(monkeypatch, capsys):
    regressed = dict(baseline("bump_default"), positivity=False)
    problems = run.gate("bump_default", False, [fake_call(regressed)])
    assert problems == ["call 0: positivity no longer passes"]

    # end to end: the result says incorrect and the exit code is 1
    monkeypatch.setattr(run, "measure",
                        lambda args, root, work: ([fake_call(regressed)],
                                                  [(0.5, 0.5)] * 3))
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "bump_default", "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


def test_gate_trips_on_missing_verdict_and_differing_series():
    partial = baseline("sample_dense")
    del partial["jensen_band"]
    assert run.gate("sample_dense", False, [fake_call(partial)])
    calls = [fake_call(baseline("sample_dense")),
             fake_call(baseline("sample_dense"), sha="b" * 64)]
    assert run.gate("sample_dense", False, calls) == [
        "calls with one seed wrote different series"]


def test_seeded_inputs():
    for name in workloads.WORKLOADS:
        keys, drawn = workloads.config_keys(name, 0)
        assert drawn == {} and keys == workloads.WORKLOADS[name].keys
    keys, drawn = workloads.config_keys("bump_fine", 7)
    assert workloads.config_keys("bump_fine", 7) == (keys, drawn)
    assert keys["grid.cells"] == 8000
    assert abs(drawn["ic.center"] - 6.0) <= 0.5
    for amp in ("ic.amp_v", "ic.amp_u", "ic.amp_theta"):
        assert abs(drawn[amp] - 0.3) <= 0.05
    assert workloads.config_keys("check", 7) == ({}, {})


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "bump_default", "--seed", "0",
                        "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith('{"correct"') for line in lines)
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "perfbench"]


def test_speed_prefers_the_probe():
    call = fake_call({})
    assert run.speed(call) == pytest.approx(1.0)  # kernel at REF_S
    probed = dict(call, probe_s=[2 * run.REF_SLICE_S] * 3)
    assert run.speed(probed) == pytest.approx(0.5)
