"""Smoke tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Each run uses `--jobs 2`, so the whole file takes well under a minute.
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
with open(os.path.join(ROOT, "BENCHMARK.json")) as _spec:
    SPEC = json.load(_spec)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, hash_seed: str = "0", cwd: str = ROOT):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--jobs", "2"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _deterministic(metrics: dict) -> dict:
    """Counts and ratios of counts; times, time shares and overhead vary."""
    return {
        name: m["value"]
        for name, m in metrics.items()
        if not name.endswith(("_s", ".self_share", ".overhead_ratio"))
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    result = _result(_run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_hash_seeds(workload):
    first = _result(_run(workload, 1, hash_seed="1"))
    second = _result(_run(workload, 1, hash_seed="2"))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in first["metrics"].items()} == expected
    assert first["correct"] and second["correct"]
    counts = _deterministic(first["metrics"])
    assert counts["polyring.reduce.calls"] > 0
    assert counts == _deterministic(second["metrics"])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("crosscheck", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
