"""Smoke test of the benchmark harness: one short run of each workload end to end."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_closed_workload_runs_and_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closed", "--seed", "1",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] < result["attempted"]
    metrics = result["metrics"]
    assert set(metrics) == {"ops_per_s", "latency_p50_s", "peak_rss_mb", "setup_s"}
    for metric in metrics.values():
        assert set(metric) == {"value", "unit"}
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", ["table", "sweep"])
def test_cli_workload_runs_and_is_correct(workload):
    # These workloads drive the CLI in-process, so their checkers catch a
    # refactor that changes what a command prints.
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] < result["attempted"]
    metrics = result["metrics"]
    assert set(metrics) == {"ops_per_s", "latency_p50_s", "peak_rss_mb", "setup_s"}
    for metric in metrics.values():
        assert set(metric) == {"value", "unit"}
        assert metric["value"] > 0
