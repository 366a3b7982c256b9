"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs at a tiny size, untraced and traced, and must emit
exactly the metrics ``BENCHMARK.json`` names, each with its unit, with all
correctness checks passing.  Without the lilmax sources the benchmark must
fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(workload, trace):
    out = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "failed_frac=0 " in lines[0]
    assert any(line.startswith("provenance ") for line in lines)


def test_fails_without_lilmax_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seconds", "1")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
