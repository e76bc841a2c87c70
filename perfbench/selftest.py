"""Fast self-test of the benchmark at reduced size.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs every workload untraced and traced with a tiny pool, a small corpus and
small archives (`run.py --size small`), and checks that:
- each run exits 0 and its last line has exactly the keys of the contract;
- no operation failed, which includes the traced run writing the same files
  as the untraced run;
- every metric that BENCHMARK.json declares is emitted with its unit, and
  every workload metric of the README with a unit and a direction;
- the environment is recorded;
- outside a checkout, the benchmark exits non-zero without a result.
Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_METRICS = {
    "search_default": ("time_to_mixture_s", "rerun_s", "macro_rho", "recovery_gap",
                       "chosen_beats_frac"),
    "search_wide": ("time_to_mixture_s", "rerun_s", "macro_rho", "recovery_gap",
                    "chosen_beats_frac"),
    "merge_10m": ("merge_s",),
    "dedup_corpus": ("dedup_docs_per_s", "dup_recall", "false_removals"),
}
ENV_KEYS = ("git_sha", "src_digest", "python", "numpy", "blas", "blas_threads", "nproc", "seed")


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def check_run(workload: str, trace: int, declared: dict) -> list[str]:
    done = run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                "--size", "small"], Path.cwd())
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr[-2000:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = next(json.loads(line)["perfbench_report"] for line in lines
                  if line.startswith('{"perfbench_report"'))
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: last-line keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: failed operations {report['failures']}")
    wanted = declared["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != set(wanted):
        problems.append(f"{where}: metrics {sorted(set(metrics) ^ set(wanted))} differ")
    for name, unit in wanted.items():
        value = metrics.get(name, {}).get("value")
        if metrics.get(name, {}).get("unit") != unit or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{where}: {name} = {metrics.get(name)}, want a number in {unit}")
    if not trace:
        for name in WORKLOAD_METRICS[workload]:
            entry = report["detail"].get(name, {})
            if not entry.get("unit") or entry.get("better") not in ("lower", "higher"):
                problems.append(f"{where}: workload metric {name} missing or without unit")
    missing_env = [key for key in ENV_KEYS if key not in report["env"]]
    if missing_env:
        problems.append(f"{where}: environment lacks {missing_env}")
    return problems


def check_outside_checkout() -> list[str]:
    """In a directory holding only BENCHMARK.json and the benchmark, the run
    must fail without printing a result."""
    bare = Path.cwd() / ".perfbench_work" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(Path.cwd() / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run([sys.executable, str(bare / HERE.name / "run.py"), "--workload",
                               "merge_10m", "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return ["outside a checkout the benchmark did not fail"]
    return []


def main() -> int:
    doc = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"]: m["unit"] for m in doc[kind]} for kind in ("end_to_end", "per_layer")}
    problems = check_outside_checkout()
    for workload in (w["name"] for w in doc["workloads"]):
        for trace in (0, 1):
            problems += check_run(workload, trace, declared)
            print(f"checked {workload} trace={trace}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
