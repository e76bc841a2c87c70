"""The benchmark's traced entry points run against the current package, so a
drift in the API they call or trace shows up here and not only in the
benchmark."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "workload", ["search_default", "search_wide", "merge_10m", "dedup_corpus"]
)
def test_small_traced_benchmark_run_has_no_failed_operation(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--size", "small",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, proc.stdout[-4000:]
