"""The benchmark's entry points run against the current package, so a drift
in the API they call or trace shows up here and not only in the benchmark."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _small_run(workload: str, trace: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--size", "small",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, proc.stdout[-4000:]
    return result


@pytest.mark.parametrize(
    "workload", ["search_default", "search_wide", "merge_10m", "dedup_corpus"]
)
def test_small_traced_benchmark_run_has_no_failed_operation(workload):
    _small_run(workload, "1")


def test_small_untraced_search_run_has_no_failed_operation():
    """Only the untraced run reaches the quality checks (the chosen mixture
    trained for real, the cold-run checks), which call the package directly."""
    result = _small_run("search_default", "0")
    assert result["metrics"]["quality"]["value"] > 0
