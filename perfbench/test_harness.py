"""Self-test of the benchmark harness, at the smallest workload sizes.

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import workloads
from worker import run_workload

HERE = Path(__file__).resolve().parent


def smoke(name, tmp_path, trace=False, reps=1, cfg=None):
    cfg = cfg or workloads.config(name, 1, smoke=True)
    return run_workload(name, cfg, tmp_path / name, seconds=0.0, trace=trace, ref=None,
                        min_reps=reps)["reps"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_runs_and_repeats_its_outputs(name, tmp_path):
    first, second = smoke(name, tmp_path, reps=2)
    assert first["ok"] and second["ok"]
    assert first["probe_passes"] >= 2 and first["scaled_seconds"] > 0
    assert check.compare(first["fingerprint"], second["fingerprint"]) == []


def test_known_bad_input_counts_as_failure(tmp_path):
    cfg = workloads.config("wall", 0, smoke=True)
    cfg["T"] = 0.1
    cfg["datum"]["widths"].update(omega=0.49, eta=8.0)
    (rep,) = smoke("wall", tmp_path, cfg=cfg)
    assert rep["exit"] == 3
    assert not rep["ok"]


def test_corrupted_reference_is_caught(tmp_path):
    (rep,) = smoke("wall", tmp_path)
    good = rep["fingerprint"]
    assert check.compare(good, good) == []

    bad = copy.deepcopy(good)
    bad["sha256"]["diagnostics.csv"] = "0" * 64
    assert check.compare(bad, good)

    bad = copy.deepcopy(good)
    rows = bad["close"]["seed_005_path.csv"]["rows"]
    rows[-1][3] *= 1.0 + 1e-9
    assert check.compare(bad, good)

    bad = copy.deepcopy(good)
    bad["files"].append("field_000099.csv")
    assert check.compare(bad, good)

    stored = check.load(HERE / "ref" / "wall-0.json.gz")
    bad = copy.deepcopy(stored)
    bad["close"]["cert_reports.json"][7]["checks"][0]["worst_margin"] *= 1.0 + 1e-9
    assert check.compare(bad, stored)


def test_failed_certificate_is_caught(tmp_path):
    (rep,) = smoke("wall", tmp_path)
    got = copy.deepcopy(rep["fingerprint"])
    got["certs_passed"] = False
    assert check.compare(rep["fingerprint"], got)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_counts_repeat_and_match_the_work_count(name, tmp_path):
    reps = smoke(name, tmp_path, trace=True, reps=4)
    layers = [r["layers"] for r in reps if r["traced"]]
    assert len(layers) == 2
    counts = [{k: v for k, v in lay.items() if isinstance(v, int)} for lay in layers]
    assert counts[0] == counts[1]
    cfg = workloads.config(name, 1, smoke=True)
    command = "picard" if name == "picard" else "simulate"
    assert counts[0]["trajectory.member_steps"] == workloads.particle_steps(cfg, command)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
