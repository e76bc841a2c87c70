"""Benchmark of the `demix` package: four seeded workloads, driven from
outside through the public API and the CLI.

Usage (from the root of a checkout, the directory that holds `src/demix`):

    python3 perfbench/run.py --workload search_default --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 12

`--trace 0` measures the end-to-end metrics; `--trace 1` makes an untraced
and a traced run of the same operations and reports the per-layer metrics,
the tracing overhead and whether both runs wrote the same files. `all` runs
every workload both ways. The last line of standard output is one JSON
object: `{"correct", "attempted", "failed", "metrics"}`. The lines before it
are a table of every metric with its unit and direction, and one
`{"perfbench_report": ...}` JSON line with the environment, the checks, the
result-file digests and the workload's own metrics.

The workload calls run in a fresh worker process (`worker.py`) with BLAS
pinned to one thread; this process generates the inputs beforehand and
checks the outputs afterwards. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread (at or below nproc) for this process and every worker;
# set before numpy loads OpenBLAS. The workloads have a single caller.
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from probe import calibrated  # noqa: E402
from worker import digest  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("search_default", "search_wide", "merge_10m", "dedup_corpus")

END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "op_cal_s": ("s", "lower"),
    "rerun_cal_s": ("s", "lower"),
    "quality": ("score", "higher"),
}
STAGES = ("lab", "components", "references", "consistency", "search", "report")
PER_LAYER = {
    "gbdt.predict_s": "s", "gbdt.predict_rows": "rows",
    "gbdt.fit_s": "s", "gbdt.fit_calls": "count",
    "mixture_search.run_search_self_s": "s", "mixture_search.evaluations": "count",
    "eval_metrics.rank_table_s": "s", "eval_metrics.rank_table_calls": "count",
    "merge_engine.merge_s": "s", "merge_engine.merge_calls": "count",
    "merge_engine.merged_values": "count",
    "tensor_store.load_archive_s": "s", "tensor_store.load_bytes": "bytes",
    "tensor_store.save_archive_s": "s", "tensor_store.save_bytes": "bytes",
    "toy_lab.train_s": "s", "toy_lab.train_calls": "count",
    "toy_lab.evaluate_model_s": "s", "toy_lab.evaluate_model_calls": "count",
    "toy_lab.make_domains_s": "s",
    **{f"pipeline.stage_s.{stage}": "s" for stage in STAGES},
    "pipeline.self_s": "s", "pipeline.stages_recomputed": "count",
    "dedup.minhash_s": "s", "dedup.mod_affine_s": "s", "dedup.shingle_self_s": "s",
    "dedup.lsh_candidates_s": "s", "dedup.candidate_pairs": "count",
    "dedup.tokenize_calls": "count", "dedup.hash_family_calls": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
# Functions each workload must reach; a traced run where one records no
# call fails its check.
REACHED = {
    "search": ("gbdt.BoostedTreesRegressor.fit", "gbdt.BoostedTreesRegressor.predict",
               "mixture_search.run_search", "eval_metrics.rank_table", "merge_engine.merge",
               "tensor_store.load_archive", "tensor_store.save_archive", "toy_lab.train",
               "toy_lab.evaluate_model", "toy_lab.make_domains", "pipeline.run_pipeline"),
    "merge_10m": ("cli.main", "tensor_store.load_archive", "merge_engine.merge",
                  "tensor_store.save_archive"),
    "dedup_corpus": ("cli.main", "dedup.tokenize", "dedup.shingle", "dedup.hash_family",
                     "dedup.minhash", "dedup.mod_affine", "dedup.lsh_candidates"),
}
SEARCH_RESULT_FILES = ("report.json", "search_result.json", "transcript.jsonl", "consistency.json")

SETUP_SPAWNS = 5
MIN_RERUNS = 20
RERUN_BLOCK_S = 1.0  # warm reruns after each cold run
MAX_CLI_CALLS = 40
RUN_DEADLINE_S = 170.0
SIMPLEX_TOL = 1e-9
# Merged values may differ from sum(w_i * c_i) by float64 rounding only: the
# components hold values of magnitude ~0.1, so rounding is ~1e-17, while a
# wrong weight moves a value by ~1e-4.
MERGE_ATOL = 1e-12


class Checks:
    """Operations attempted and the checks each one failed."""

    def __init__(self):
        self.failed: dict[str, list[str]] = {}

    def check(self, label: str, name: str, ok: bool) -> None:
        self.failed.setdefault(label, [])
        if not ok:
            self.failed[label].append(name)

    @property
    def attempted(self) -> int:
        return len(self.failed)

    @property
    def n_failed(self) -> int:
        return sum(1 for names in self.failed.values() if names)

    def failures(self) -> dict[str, list[str]]:
        return {label: names for label, names in self.failed.items() if names}


class Context:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 small: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.small = small
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work = root / ".perfbench_work" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(root / "src")}
        self.checks = Checks()
        self.digests: dict[str, str] = {}
        self.detail: dict[str, tuple[float, str, str]] = {}
        self.report: dict = {}

    def check(self, label: str, name: str, ok: bool) -> None:
        self.checks.check(label, name, ok)

    def note(self, name: str, value: float, unit: str, better: str) -> None:
        self.detail[name] = (value, unit, better)


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else float("nan")


def run_worker(ctx: Context, name: str, spec: dict) -> dict:
    spec_path = ctx.work / f"{name}.spec.json"
    result_path = ctx.work / f"{name}.result.json"
    spec_path.write_text(json.dumps(spec))
    timeout = max(5.0, ctx.deadline - time.monotonic())
    with open(ctx.work / f"{name}.log", "w") as log:
        try:
            subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                           env=ctx.env, stdout=log, stderr=subprocess.STDOUT, timeout=timeout,
                           check=False)
        except subprocess.TimeoutExpired:
            pass  # run() has killed and reaped the worker
    if not result_path.exists():
        log_text = (ctx.work / f"{name}.log").read_text()[-2000:]
        return {"ops": [], "error": f"worker wrote no result\n{log_text}", "spans": [],
                "restored": None, "maxrss_kb": 0, "blas_threads": None, "first_probe_s": 0.0}
    result = json.loads(result_path.read_text())
    # Rescale each operation to the reference machine speed by the speed
    # probes the worker timed just before and just after it.
    before = result["first_probe_s"]
    for op in result["ops"]:
        op["cal_s"] = calibrated(op["s"], before, op["probe_s"])
        before = op["probe_s"]
    ctx.report.setdefault("op_times_s", {})[name] = [
        [op["kind"], round(op["s"], 6), round(op["probe_s"], 6)] for op in result["ops"]]
    return result


def _worker_error(ctx: Context, name: str, result: dict) -> None:
    """A worker that raised failed the operation it was in."""
    if result["error"]:
        ctx.check(f"{name}.op{len(result['ops'])}", "raised", False)
        ctx.report.setdefault("errors", {})[name] = result["error"]


def measure_setup(ctx: Context) -> float:
    """Median time from starting a fresh interpreter until `import demix`
    returns, over several interpreters."""
    code = "import time, demix; print(time.monotonic())"
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=ctx.env, capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(float(done.stdout) - start)
    ctx.report["setup_samples_s"] = times
    return _median(times)


# --- search_default / search_wide ----------------------------------------


def _check_cold(ctx: Context, label: str, op: dict) -> Path:
    run_dir = Path(op["run_dir"])
    ctx.check(label, "every stage recomputed", op["recomputed"] == op["stages"] == len(STAGES))
    result = json.loads((run_dir / "search_result.json").read_text())
    ctx.check(label, "evaluations equal the plan",
              result["evaluations"] == result["planned_evaluations"])
    weights = list(json.loads((run_dir / "report.json").read_text())["optimal_mixture"].values())
    ctx.check(label, "optimal mixture on the simplex",
              min(weights) >= 0.0 and abs(sum(weights) - 1.0) <= SIMPLEX_TOL)
    return run_dir


def _result_files(run_dir: Path) -> list[Path]:
    return [run_dir / name for name in SEARCH_RESULT_FILES] + sorted(run_dir.glob("*.dmxt"))


def chosen_beats_frac(config_path: Path, run_dir: Path) -> float:
    """Train the chosen mixture for real, from the run's base, and return the
    share of the run's references whose macro-average rank is worse."""
    from demix import toy_lab
    from demix.config import load_config
    from demix.eval_metrics import ScoreTable, rank_table
    from demix.merge_engine import MixtureRatio
    from demix.pipeline import read_score_csv
    from demix.tensor_store import load_archive

    config = load_config(config_path)
    lab = toy_lab.load_lab(run_dir / "lab.npz")
    chosen = json.loads((run_dir / "report.json").read_text())["optimal_mixture"]
    ids = [c.id for c in lab.candidates]
    ratio = MixtureRatio(weights=[chosen[c] for c in ids], candidate_ids=ids)
    training = toy_lab.ComponentTrainingConfig(
        general_mix_beta=config.training.beta, steps=config.training.steps,
        step_size=config.training.step_size, batch_size=config.training.batch_size,
        seed=config.seed, model_family=config.lab.family, hidden_units=config.lab.hidden_units,
        base_steps=config.training.base_steps, full_batch=config.training.full_batch,
    )
    mixture = toy_lab.reference_mixture(lab.candidates, lab.general, ratio, config.training.beta)
    model = toy_lab.train(mixture, load_archive(run_dir / "base.dmxt"), training)
    references = read_score_csv(run_dir / "references.csv", run_dir / "domains.csv")
    rows = dict(references.rows)
    rows["chosen"] = toy_lab.evaluate_model(model, lab.tasks)
    ranks = rank_table(ScoreTable(rows=rows, domain_of=references.domain_of))
    mine = ranks["chosen"][1]
    others = [rank for model_id, (_, rank) in ranks.items() if model_id != "chosen"]
    return sum(rank > mine for rank in others) / len(others)


def run_search(ctx: Context) -> dict:
    configs, roots = [], []
    for j in range(1 if ctx.trace else inputs.SEARCH_COLD_RUNS):
        path = ctx.work / f"config_{j}.ini"
        path.write_text(inputs.search_config(ctx.workload, ctx.seed, j, ctx.small))
        configs.append(str(path))
        roots.append(str(ctx.work / f"runs_{j}"))
    spec = {"kind": "search", "trace": False, "configs": configs, "roots": roots,
            "seconds": 0 if ctx.trace else ctx.seconds,
            "min_reruns": 0 if ctx.trace else MIN_RERUNS,
            "rerun_block_s": 0 if ctx.trace else RERUN_BLOCK_S}
    plain = run_worker(ctx, "untraced", spec)
    _worker_error(ctx, "untraced", plain)
    colds = [op for op in plain["ops"] if op["kind"] == "cold"]
    warms = [op for op in plain["ops"] if op["kind"] == "warm"]
    rhos, gaps, beats = [], [], []
    for j, op in enumerate(colds):
        run_dir = _check_cold(ctx, f"cold{j}", op)
        for path in _result_files(run_dir):
            ctx.digests[f"cold{j}/{path.name}"] = digest(path)
        consistency = json.loads((run_dir / "consistency.json").read_text())
        rhos.append(consistency["macro_avg_rho"])
        gaps.append(abs(1.0 - consistency["mean_capability_recovery"]))
        if not ctx.trace:
            beats.append(chosen_beats_frac(Path(configs[j]), run_dir))
    # A warm rerun repeats the cold run before it.
    cold_index = -1
    for i, op in enumerate(plain["ops"]):
        if op["kind"] == "cold":
            cold_index += 1
            continue
        ctx.check(f"warm{i}", "rerun recomputes no stage", op["recomputed"] == 0)
        ctx.check(f"warm{i}", "rerun leaves report.json unchanged",
                  op["report"] == ctx.digests.get(f"cold{cold_index}/report.json"))
    if not ctx.trace:
        rhos += quality_only_rhos(ctx)
    ctx.report["per_lab"] = {"macro_rho": rhos, "recovery_gap": gaps, "chosen_beats_frac": beats}

    if ctx.trace:
        traced = run_worker(ctx, "traced", {**spec, "trace": True,
                                            "roots": [str(ctx.work / "traced_runs_0")]})
        _worker_error(ctx, "traced", traced)
        same = False
        if traced["ops"] and colds:
            traced_dir = _check_cold(ctx, "traced0", traced["ops"][0])
            same = all(filecmp.cmp(path, traced_dir / path.name, shallow=False)
                       for path in _result_files(Path(colds[0]["run_dir"])))
        ctx.check("traced0", "traced run writes the same files", same)
        return _layers(ctx, plain, traced, "search")

    ctx.note("time_to_mixture_s", _median([op["s"] for op in colds]), "s", "lower")
    ctx.note("rerun_s", _median([op["s"] for op in warms]), "s", "lower")
    ctx.note("macro_rho", _mean(rhos), "rho", "higher")
    ctx.note("recovery_gap", _mean(gaps), "score", "lower")
    ctx.note("chosen_beats_frac", _mean(beats), "share", "higher")
    return {"peak_rss_mb": plain["maxrss_kb"] / 1024,
            "op_cal_s": _median([op["cal_s"] for op in colds]),
            "rerun_cal_s": _median([op["cal_s"] for op in warms]),
            "quality": _mean(rhos), "blas_threads": plain["blas_threads"]}


def quality_only_rhos(ctx: Context) -> list[float]:
    """`macro_avg_rho` of the run's quality-only labs. This process runs their
    pipelines with a tiny search, after the worker and outside every timing."""
    from demix import pipeline
    from demix.config import load_config

    rhos = []
    for j in range(inputs.SEARCH_COLD_RUNS, inputs.LABS_PER_RUN):
        path = ctx.work / f"config_{j}.ini"
        path.write_text(inputs.search_config(ctx.workload, ctx.seed, j, ctx.small))
        manifest = pipeline.run_pipeline(load_config(path), run_root=str(ctx.work / f"runs_{j}"))
        consistency = json.loads((Path(manifest.run_dir) / "consistency.json").read_text())
        ctx.check(f"lab{j}", "consistency over every reference",
                  consistency["n_models"] == manifest.config["references"]["count"])
        rhos.append(consistency["macro_avg_rho"])
    return rhos


# --- merge_10m --------------------------------------------------------------


def read_dmxt(path: Path) -> dict[str, np.ndarray]:
    """Tensors of a `.dmxt` archive as read-only memory maps (independent of
    the package's own reader: 4-byte magic, u32 version, u64 header length,
    JSON header, then little-endian float64 payload)."""
    with open(path, "rb") as fh:
        _magic, _version, header_len = struct.unpack("<4sIQ", fh.read(16))
        header = json.loads(fh.read(header_len))
    start = 16 + header_len
    return {t["name"]: np.memmap(path, dtype="<f8", mode="r", offset=start + t["offset"],
                                 shape=(t["length"] // 8,))
            for t in header["tensors"]}


def run_merge(ctx: Context) -> dict:
    from demix.tensor_store import ParameterSet, save_archive

    components, ratios = inputs.merge_inputs(ctx.seed, ctx.small)
    paths = []
    for comp_id, arrays in components.items():
        path = ctx.work / f"{comp_id}.dmxt"
        save_archive(ParameterSet.from_arrays(arrays, model_id=comp_id), path)
        paths.append(path)
    del components

    def argvs(prefix: str) -> list[list[str]]:
        return [["merge", "--method", "linear", "--ratio", inputs.ratio_arg(ratios[i % len(ratios)]),
                 "--components", ",".join(map(str, paths)),
                 "--out", str(ctx.work / f"{prefix}_{i:03d}.dmxt")]
                for i in range(MAX_CLI_CALLS)]

    # Every call's output is digested; the first call at each ratio keeps its
    # archive for the numpy check, and later calls must match it byte for byte.
    spec = {"kind": "cli", "trace": False, "argvs": argvs("out"),
            "seconds": ctx.seconds / 2 if ctx.trace else ctx.seconds,
            "min_calls": 2 if ctx.trace else len(ratios) + 1,
            "digest_last": True, "keep": len(ratios)}
    plain = run_worker(ctx, "untraced", spec)
    _worker_error(ctx, "untraced", plain)
    comps = [read_dmxt(p) for p in paths]
    within = total = 0
    for i, op in enumerate(plain["ops"]):
        label = f"call{i}"
        ctx.check(label, "exit code 0", op["code"] == 0)
        if op["code"] != 0:
            continue
        if i >= len(ratios):
            ctx.check(label, "same archive as the first call at this ratio",
                      op.get("digest") == plain["ops"][i % len(ratios)].get("digest"))
            continue
        ctx.digests[f"merged_ratio{i}.dmxt"] = op["digest"]
        merged = read_dmxt(Path(spec["argvs"][i][-1]))
        same_schema = ({n: a.shape for n, a in merged.items()}
                       == {n: a.shape for n, a in comps[0].items()})
        ctx.check(label, "merged tensors match the components", same_schema)
        if not same_schema:
            continue
        ok = True
        for name in comps[0]:
            expected = sum(w * np.asarray(c[name]) for w, c in zip(ratios[i], comps))
            close = np.abs(np.asarray(merged[name]) - expected) <= MERGE_ATOL
            within += int(close.sum())
            total += close.size
            ok = ok and bool(close.all())
        ctx.check(label, "merged archive equals the numpy convex combination", ok)
    times = [op["s"] for op in plain["ops"]]

    if ctx.trace:
        n = len(plain["ops"])
        traced = run_worker(ctx, "traced", {**spec, "trace": True, "argvs": argvs("traced")[:n],
                                            "min_calls": n})
        _worker_error(ctx, "traced", traced)
        for i, op in enumerate(traced["ops"]):
            ctx.check(f"traced{i}", "traced run writes the same files",
                      op["code"] == 0 and op.get("digest") == plain["ops"][i].get("digest"))
        return _layers(ctx, plain, traced, "merge_10m")

    cal = [op["cal_s"] for op in plain["ops"]]
    ctx.note("merge_s", _median(times), "s", "lower")
    _note_tail(ctx, "merge_s", times)
    return {"peak_rss_mb": plain["maxrss_kb"] / 1024, "op_cal_s": _median(cal),
            "rerun_cal_s": _median(cal[len(ratios):]), "quality": within / max(total, 1),
            "blas_threads": plain["blas_threads"]}


def _note_tail(ctx: Context, name: str, times: list[float]) -> None:
    """`<name>_tail`: the highest percentile with at least 10 calls beyond it,
    when that lies above the median; the report records which percentile."""
    n = len(times)
    pct = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if pct > 50:
        ctx.note(f"{name}_tail", float(np.percentile(times, pct, method="lower")), "s", "lower")
        ctx.report[f"{name}_tail_percentile"] = pct


# --- dedup_corpus ------------------------------------------------------------


def run_dedup(ctx: Context) -> dict:
    docs, planted = inputs.dedup_corpus(ctx.seed, ctx.small)
    corpus = ctx.work / "corpus.jsonl"
    inputs.write_jsonl(corpus, docs)
    ctx.report["planted"] = [[p["id"], p["source"], p["kind"], p["edits"], p["changed_words"]]
                             for p in planted]

    def argvs(prefix: str) -> list[list[str]]:
        return [["dedup", "--in", str(corpus), "--report", str(ctx.work / f"{prefix}_{i:03d}.json"),
                 "--out", str(ctx.work / f"{prefix}_{i:03d}.jsonl")] for i in range(MAX_CLI_CALLS)]

    spec = {"kind": "cli", "trace": False, "argvs": argvs("out"),
            "seconds": ctx.seconds / 2 if ctx.trace else ctx.seconds, "min_calls": 2}
    plain = run_worker(ctx, "untraced", spec)
    _worker_error(ctx, "untraced", plain)
    all_ids = [d["id"] for d in docs]
    first_removed: list[str] = []
    for i, op in enumerate(plain["ops"]):
        label = f"call{i}"
        ctx.check(label, "exit code 0", op["code"] == 0)
        report_path, out_path = Path(spec["argvs"][i][4]), Path(spec["argvs"][i][6])
        if op["code"] != 0:
            continue
        report = json.loads(report_path.read_text())
        kept = report["kept"]
        removed = [r["id"] for r in report["removed"]]
        ctx.check(label, "kept and removed are disjoint", not set(kept) & set(removed))
        ctx.check(label, "kept and removed cover the corpus",
                  sorted(kept + removed) == sorted(all_ids))
        kept_set = set(kept)
        written = [json.loads(line) for line in out_path.read_text().splitlines() if line.strip()]
        ctx.check(label, "--out holds exactly the kept docs",
                  written == [d for d in docs if d["id"] in kept_set])
        report_digest = digest(report_path)
        if i == 0:
            first_removed = removed
            ctx.digests["dedup_report.json"] = report_digest
            ctx.digests["dedup_kept.jsonl"] = digest(out_path)
        ctx.check(label, "same report as the first call",
                  report_digest == ctx.digests["dedup_report.json"])

    if ctx.trace:
        n = len(plain["ops"])
        traced_argvs = argvs("traced")[:n]
        traced = run_worker(ctx, "traced", {**spec, "trace": True, "argvs": traced_argvs,
                                            "min_calls": n})
        _worker_error(ctx, "traced", traced)
        for i, op in enumerate(traced["ops"]):
            same = op["code"] == 0 and all(
                filecmp.cmp(spec["argvs"][i][k], traced_argvs[i][k], shallow=False) for k in (4, 6))
            ctx.check(f"traced{i}", "traced run writes the same files", same)
        return _layers(ctx, plain, traced, "dedup_corpus")

    planted_ids = {p["id"] for p in planted}
    removed = set(first_removed)
    recall = len(planted_ids & removed) / len(planted_ids)
    times = [op["s"] for op in plain["ops"]]
    cal = [op["cal_s"] for op in plain["ops"]]
    ctx.note("dedup_docs_per_s", len(docs) / _median(times), "docs/s", "higher")
    ctx.note("dup_recall", recall, "share", "higher")
    ctx.note("false_removals", len(removed - planted_ids), "count", "lower")
    for kind, edits in (("exact", 0), ("near", 1), ("near", 2), ("near", 3)):
        group = [p["id"] for p in planted if p["kind"] == kind and p["edits"] == edits]
        name = "exact" if kind == "exact" else f"near_{edits}edit"
        ctx.note(f"dup_recall.{name}", len(removed & set(group)) / len(group), "share", "higher")
    near = [p["changed_words"] for p in planted if p["kind"] == "near"]
    ctx.report["corpus"] = {
        "docs": len(docs), "exact_copies": sum(p["kind"] == "exact" for p in planted),
        "near_copies": len(near), "near_changed_words_mean": statistics.fmean(near),
        "near_changed_words_max": max(near), "vocabulary": inputs.VOCAB_SIZE,
        "zipf_exponent": inputs.ZIPF_EXPONENT,
    }
    return {"peak_rss_mb": plain["maxrss_kb"] / 1024, "op_cal_s": _median(cal),
            "rerun_cal_s": _median(cal[1:]), "quality": recall, "blas_threads": plain["blas_threads"]}


# --- per-layer metrics -------------------------------------------------------


def _layers(ctx: Context, plain: dict, traced: dict, reach_key: str) -> dict:
    """Per-layer metrics of the traced run, per operation, plus the tracing
    overhead against the untraced run of the same operations."""
    from tracer import aggregate

    ctx.check("traced0", "every original restored after tracing", traced["restored"] is True)
    agg = aggregate(traced["spans"])
    functions, modules = agg["functions"], agg["modules"]
    for name in REACHED[reach_key]:
        ctx.check("traced0", f"{name} reached", functions.get(name, {}).get("calls", 0) > 0)
    n_ops = max(len(traced["ops"]), 1)

    def fn(name: str, key: str) -> float:
        return functions.get(name, {}).get(key, 0) / n_ops

    def mod(name: str, key: str) -> float:
        return modules.get(name, {}).get(key, 0) / n_ops

    overhead = (_median([op["cal_s"] for op in traced["ops"]])
                - _median([op["cal_s"] for op in plain["ops"]]))
    values = {
        "gbdt.predict_s": fn("gbdt.BoostedTreesRegressor.predict", "incl_s"),
        "gbdt.predict_rows": fn("gbdt.BoostedTreesRegressor.predict", "rows"),
        "gbdt.fit_s": fn("gbdt.BoostedTreesRegressor.fit", "incl_s"),
        "gbdt.fit_calls": fn("gbdt.BoostedTreesRegressor.fit", "calls"),
        "mixture_search.run_search_self_s": fn("mixture_search.run_search", "self_s"),
        "mixture_search.evaluations": fn("mixture_search.run_search", "evaluations"),
        "eval_metrics.rank_table_s": fn("eval_metrics.rank_table", "incl_s"),
        "eval_metrics.rank_table_calls": fn("eval_metrics.rank_table", "calls"),
        "merge_engine.merge_s": mod("merge_engine", "incl_s"),
        "merge_engine.merge_calls": mod("merge_engine", "calls"),
        "merge_engine.merged_values": mod("merge_engine", "values"),
        "tensor_store.load_archive_s": fn("tensor_store.load_archive", "incl_s"),
        "tensor_store.load_bytes": fn("tensor_store.load_archive", "bytes"),
        "tensor_store.save_archive_s": fn("tensor_store.save_archive", "incl_s"),
        "tensor_store.save_bytes": fn("tensor_store.save_archive", "bytes"),
        "toy_lab.train_s": fn("toy_lab.train", "incl_s"),
        "toy_lab.train_calls": fn("toy_lab.train", "calls"),
        "toy_lab.evaluate_model_s": fn("toy_lab.evaluate_model", "incl_s"),
        "toy_lab.evaluate_model_calls": fn("toy_lab.evaluate_model", "calls"),
        "toy_lab.make_domains_s": fn("toy_lab.make_domains", "incl_s"),
        **{f"pipeline.stage_s.{stage}": fn("pipeline.run_pipeline", f"stage_s.{stage}")
           for stage in STAGES},
        "pipeline.self_s": mod("pipeline", "self_s"),
        "pipeline.stages_recomputed": fn("pipeline.run_pipeline", "stages_recomputed"),
        "dedup.minhash_s": fn("dedup.minhash", "incl_s"),
        "dedup.mod_affine_s": fn("dedup.mod_affine", "incl_s"),
        "dedup.shingle_self_s": fn("dedup.shingle", "self_s"),
        "dedup.lsh_candidates_s": fn("dedup.lsh_candidates", "incl_s"),
        "dedup.candidate_pairs": fn("dedup.lsh_candidates", "pairs"),
        "dedup.tokenize_calls": fn("dedup.tokenize", "calls"),
        "dedup.hash_family_calls": fn("dedup.hash_family", "calls"),
        "cli.self_s": mod("cli", "self_s"),
        "trace.overhead_s": overhead,
    }
    ctx.report["accounting"] = {
        "untraced_op_s": _median([op["s"] for op in plain["ops"]]),
        "traced_op_mean_s": _mean([op["s"] for op in traced["ops"]]),
        "module_self_s": {name: m["self_s"] / n_ops for name, m in sorted(modules.items())},
        "sum_module_self_s": sum(m["self_s"] for m in modules.values()) / n_ops,
        "traced_ops": n_ops,
        "spans": len(traced["spans"]),
    }
    ctx.report["functions"] = {
        name: {key: value / n_ops for key, value in f.items()}
        for name, f in sorted(functions.items())
    }
    return {"layers": values, "blas_threads": traced["blas_threads"]}


# --- environment and output ----------------------------------------------------


def environment(ctx: Context, blas_threads) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ctx.root, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # not a git checkout
    src = hashlib.blake2b(digest_size=16)
    for path in sorted((ctx.root / "src" / "demix").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "src_digest": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "seed": ctx.seed,
        "workload": ctx.workload,
        "seconds": ctx.seconds,
        "trace": int(ctx.trace),
        "size": "small" if ctx.small else "full",
    }


def run_one(ctx: Context) -> dict:
    """Measure one workload; returns the result object of the last line."""
    ctx.work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = None if ctx.trace else measure_setup(ctx)
        runner = {"search_default": run_search, "search_wide": run_search,
                  "merge_10m": run_merge, "dedup_corpus": run_dedup}[ctx.workload]
        measured = runner(ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            ctx.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if ctx.trace:
        metrics = {name: {"value": measured["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        table = [(name, measured["layers"][name], unit, "lower") for name, unit in PER_LAYER.items()]
    else:
        measured["setup_s"] = setup_s
        metrics = {name: {"value": measured[name], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
        table = [(name, measured[name], unit, better) for name, (unit, better) in END_TO_END.items()]
        table += [(name, *spec) for name, spec in ctx.detail.items()]
    correct = ctx.checks.n_failed == 0
    print(f"perfbench {ctx.workload} seed={ctx.seed} trace={int(ctx.trace)} "
          f"ops={ctx.checks.attempted} failed={ctx.checks.n_failed}")
    for name, value, unit, better in table:
        print(f"  {name:<36} {value:>16.6g} {unit:<8} {better}")
    ctx.report.update({
        "env": environment(ctx, measured["blas_threads"]),
        "detail": {name: {"value": v, "unit": u, "better": b} for name, (v, u, b) in ctx.detail.items()},
        "digests": ctx.digests,
        "failures": ctx.checks.failures(),
    })
    print(json.dumps({"perfbench_report": ctx.report}, sort_keys=True))
    return {"correct": correct, "attempted": ctx.checks.attempted,
            "failed": ctx.checks.n_failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: reduced inputs for the self-test")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "demix" / "__init__.py").is_file():
        print(f"perfbench: no src/demix under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    if args.workload != "all":
        ctx = Context(root, args.workload, args.seed, args.seconds, bool(args.trace),
                      args.size == "small")
        result = run_one(ctx)
        print(json.dumps(result, sort_keys=True))
        return 0
    results = {}
    for workload in WORKLOADS:
        for trace in (False, True):
            ctx = Context(root, workload, args.seed, args.seconds, trace, args.size == "small")
            results[(workload, trace)] = run_one(ctx)
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{'trace' if t else 'e2e'}.{name}": m
                    for (w, t), r in results.items() for name, m in r["metrics"].items()},
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
