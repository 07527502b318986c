"""Tiny runs of the benchmark print every metric of BENCHMARK.json with its
unit, and the benchmark refuses to run without the package sources."""

import json
import math
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CASES = [(w, t) for w in WORKLOADS for t in (0, 1)]


def run_benchmark(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def tiny_runs():
    # Two at a time: each run is single-threaded.
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(lambda case: run_benchmark(ROOT, *case), CASES))
    return dict(zip(CASES, procs))


@pytest.mark.parametrize("workload,trace", CASES)
def test_every_metric_printed_with_unit(tiny_runs, workload, trace):
    proc = tiny_runs[workload, trace]
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float)) and math.isfinite(printed["value"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_benchmark(tmp_path, "analytic", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
