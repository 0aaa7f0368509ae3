"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Every workload must pass its own correctness checks, emit exactly the
metrics BENCHMARK.json declares with their units, warn about no traced
function, and repeat every count of a traced run exactly.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert "warning" not in proc.stderr and "check failed" not in proc.stderr, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def assert_declared(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = bench(workload, 0)
    assert_declared(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    assert_declared(first, SPEC["per_layer"])
    counts = {k for k, m in first["metrics"].items() if m["unit"] in ("count", "B")}
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
