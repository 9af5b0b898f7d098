"""Smoke test: the quick mode of every workload runs, checks and reports.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
END_TO_END = {"setup_s", "positive_s", "negative_s", "small_ms", "peak_rss_mb"}


@pytest.mark.parametrize("workload", ["verify", "double", "solve"])
def test_quick_mode(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", "0", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_quick_trace_prints_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        per_layer = {m["name"] for m in json.load(f)["per_layer"]}
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "double",
         "--seed", "5", "--seconds", "0", "--trace", "1", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert set(result["metrics"]) == per_layer
