"""Tiny-size runs of every workload, untraced and traced, through the command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def command(monkeypatch, capsys):
    for var in run._THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))

    def invoke(*args):
        status = run.main(["--tiny", "--seconds", "0", "--seed", "5", *args])
        lines = capsys.readouterr().out.strip().splitlines()
        return status, lines

    return invoke


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(command, workload):
    status, lines = command("--workload", workload, "--trace", "0")
    result = json.loads(lines[-1])
    assert status == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 or k == "success_rate" for k, m in result["metrics"].items())
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["seed"] == 5 and env["workload"] == workload


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(command, workload):
    status, lines = command("--workload", workload, "--trace", "1")
    result = json.loads(lines[-1])
    assert status == 0 and result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    value = {k: m["value"] for k, m in result["metrics"].items()}
    assert value["heatfield.solve_to_times.s"] > 0
    assert value["planner.interpolate.calls"] > 0
    if workload == "suite_fanout":
        assert value["bench.run_suite.solves_per_ladder"] >= 1
        assert 0 < value["bench.run_suite.worker_busy_frac"] <= 1
        assert value["bench.run_one.self_s"] > 0
    assert not list(run.HERE.glob(".spool-*"))


def test_traced_and_untraced_digests_match(command):
    _, plain = command("--workload", "cold_maps", "--trace", "0")
    _, traced = command("--workload", "cold_maps", "--trace", "1")
    digest = [line.split()[-1] for line in plain + traced if line.strip().startswith("digest ")]
    assert len(digest) == 2 and digest[0] == digest[1]


def test_failed_check_gives_nonzero_exit(command, monkeypatch):
    monkeypatch.setattr(workloads, "check_plan", lambda *a: ["forced"])
    status, lines = command("--workload", "cold_maps", "--trace", "0")
    assert status == 1 and json.loads(lines[-1])["correct"] is False


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".spool-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cold_maps",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
