"""Smoke test of the benchmark itself: ``python3 -m pytest bench/test_bench.py``.

Runs every workload once untraced and once traced in ``--smoke`` mode and
checks the output contract: the last line is one JSON object whose metrics
are exactly those BENCHMARK.json names, with their units, and a clean run
of the in-process workloads fails nothing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_matches_benchmark_json(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        spec["name"]: spec["unit"] for spec in specs
    }
    assert all(isinstance(metric["value"], (int, float)) for metric in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] >= 1
    stamp = json.loads(lines[-2].removeprefix("stamp "))
    assert {"seed", "git_sha", "python", "numpy", "scipy", "nproc"} <= set(stamp)
    if workload != "cli-mix":
        assert result["failed"] == 0
        if not trace:
            assert result["metrics"]["ok_share"]["value"] == 1.0


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
