"""End-to-end pipeline: lab generation, component preparation, optional
reference training and consistency reporting, proxy-based mixture search,
and the final report.

The lab, components, references and search stages are module-level
functions, which the matching `demix lab` and `demix search` subcommands call
too. The run directory is named by the config's content hash, so each stage
is cached by a hash over its implementation version and its input artifacts
only (the report stage also keys on the experiment name, which the content
hash leaves out). Rerunning a finished experiment recomputes nothing, and
deleting an intermediate artifact recomputes only that stage and, where
their inputs actually changed, the stages downstream of it. The consistency
and search stages evaluate proxies by linearly merging the components and
benchmarking the result; they never train and never read the shared base,
which only the references stage uses.

Reports and transcripts contain no timestamps and serialize with sorted keys,
so identical configs produce byte-identical result files.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import merge_engine, mixture_search, toy_lab
from .config import ExperimentConfig
from .errors import PipelineError, ValidationError
from .eval_metrics import ScoreTable, consistency_report
from .merge_engine import MixtureRatio
from .tensor_store import ParameterSet, atomic_write, load_archive, save_archive

STAGE_ORDER = ["lab", "components", "references", "consistency", "search", "report"]
# Each stage's implementation version, part of its cache hash. Bump a stage's
# version with any code change that alters what it writes, so that run
# directories made by older code recompute it instead of reusing its files.
STAGE_VERSIONS = {
    "lab": 1, "components": 1, "references": 1, "consistency": 1, "search": 1, "report": 1,
}


@dataclass
class ExperimentManifest:
    config: dict
    config_hash: str
    run_dir: str
    stages: dict[str, dict] = field(default_factory=dict)
    created_at: float = 0.0

    def stage(self, name: str) -> dict:
        return self.stages.setdefault(
            name, {"status": "pending", "hash": None, "outputs": {}, "recomputed": False}
        )

    def save(self, path) -> None:
        """Write through :func:`atomic_write`, so a run killed mid-save leaves
        the previous manifest whole."""
        with atomic_write(path) as fh:
            fh.write(json.dumps(vars(self), indent=2, sort_keys=True).encode("utf-8"))

    @classmethod
    def load(cls, path) -> "ExperimentManifest":
        try:
            manifest = cls(**json.loads(Path(path).read_text()))
        except OSError as exc:
            raise PipelineError(f"cannot read manifest {path}: {exc.strerror}") from None
        except (ValueError, TypeError) as exc:
            raise PipelineError(f"{path}: not a demix manifest: {exc}") from exc
        expected = {"config": dict, "stages": dict, "config_hash": str, "run_dir": str}
        wrong = [k for k, kind in expected.items() if not isinstance(getattr(manifest, k), kind)]
        if not wrong:
            wrong = [
                key
                for name, record in manifest.stages.items()
                for key in _bad_stage_keys(name, record)
            ]
        if wrong:
            raise PipelineError(f"{path}: not a demix manifest: wrong type for {', '.join(wrong)}")
        return manifest


def _bad_stage_keys(name: str, record) -> list[str]:
    """The keys of a stage record that ``_execute`` could not use."""
    if not isinstance(record, dict):
        return [f"stages.{name}"]
    outputs = record.get("outputs", {})
    usable = {
        "status": isinstance(record.get("status"), str),
        "hash": isinstance(record.get("hash"), (str, type(None))),
        "outputs": isinstance(outputs, dict) and all(isinstance(v, str) for v in outputs.values()),
    }
    return [f"stages.{name}.{key}" for key, ok in usable.items() if not ok]


def _file_hash(path: Path) -> str:
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _dump_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_score_csv(table: ScoreTable, scores_path: Path, domains_path: Path | None = None) -> None:
    lines = ["model_id,benchmark_id,score"]
    for model in table.models():
        for bench in table.benchmarks():
            lines.append(f"{model},{bench},{table.rows[model][bench]!r}")
    scores_path.write_text("\n".join(lines) + "\n")
    if domains_path is not None:
        rows = ["benchmark_id,domain"]
        rows += [f"{b},{table.domain_of[b]}" for b in table.benchmarks()]
        domains_path.write_text("\n".join(rows) + "\n")


def _csv_rows(path, header: list[str]):
    """(line number, fields) of each row under ``header`` in a CSV file."""
    try:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    if not lines or lines[0].split(",")[: len(header)] != header:
        raise ValidationError(f"{path}: expected header {','.join(header)}")
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise ValidationError(
                f"{path}:{number}: expected {len(header)} fields, got {len(fields)}"
            )
        yield number, fields


def read_score_csv(scores_path, domains_path) -> ScoreTable:
    rows: dict[str, dict[str, float]] = {}
    header = ["model_id", "benchmark_id", "score"]
    for number, (model, bench, score) in _csv_rows(scores_path, header):
        try:
            rows.setdefault(model, {})[bench] = float(score)
        except ValueError:
            raise ValidationError(f"{scores_path}:{number}: bad score {score!r}") from None
    domain_of = dict(fields for _, fields in _csv_rows(domains_path, ["benchmark_id", "domain"]))
    return ScoreTable(rows=rows, domain_of=domain_of)


class ProxyEvaluator:
    """Merge-then-benchmark evaluator used by the search stage (training-free)."""

    def __init__(self, components, tasks):
        self.components = components
        self.tasks = tasks
        self.calls = 0

    def __call__(self, ratio: MixtureRatio) -> dict[str, float]:
        self.calls += 1
        proxy = merge_engine.merge(self.components, ratio)
        return toy_lab.evaluate_model(proxy, self.tasks)


def build_proxy_table(components, ratios, tasks) -> ScoreTable:
    """Score merged proxies for a list of ratios; row ids align with
    build_reference_set so the two tables are directly comparable."""
    evaluate = ProxyEvaluator(components, tasks)
    rows = {f"mix_{j:03d}": evaluate(ratio) for j, ratio in enumerate(ratios)}
    return ScoreTable(rows=rows, domain_of={t.id: t.domain for t in tasks})


def generate_lab(config: ExperimentConfig, path: Path) -> None:
    """The lab stage: generate the configured lab world and save it."""
    toy_lab.save_lab(config.make_lab(), path)


def train_components(config: ExperimentConfig, lab: toy_lab.ToyLab, out_dir: Path) -> None:
    """The components stage: train the shared base, then one component per
    candidate; saved as ``base.dmxt`` and ``component_<id>.dmxt``."""
    base, components = toy_lab.prepare_components(
        lab.candidates, lab.general, config.training_config()
    )
    save_archive(base, out_dir / "base.dmxt")
    for cand, comp in zip(lab.candidates, components):
        save_archive(comp, out_dir / f"component_{cand.id}.dmxt")


def load_components(directory: Path, lab: toy_lab.ToyLab) -> list[ParameterSet]:
    """The components in ``directory``, in the lab's candidate order."""
    return [load_archive(directory / f"component_{c.id}.dmxt") for c in lab.candidates]


def train_references(
    config: ExperimentConfig, lab: toy_lab.ToyLab, base: ParameterSet, out_dir: Path
) -> None:
    """The references stage: train one reference model per sampled ratio and
    save the ratios and the reference score table."""
    candidate_ids = [c.id for c in lab.candidates]
    ratios = mixture_search.sample_simplex(
        len(candidate_ids),
        config.references.count,
        int(np.random.SeedSequence([config.seed, 0xEF]).generate_state(1)[0]),
        candidate_ids=candidate_ids,
    )
    _dump_json(out_dir / "reference_ratios.json", [r.as_dict() for r in ratios])
    table = toy_lab.build_reference_set(
        lab.candidates, lab.general, ratios, base, lab.tasks, config.training_config()
    )
    write_score_csv(table, out_dir / "references.csv", out_dir / "domains.csv")


def search_mixture(
    config: ExperimentConfig,
    lab: toy_lab.ToyLab,
    components: list[ParameterSet],
    result_path: Path,
    transcript_path: Path | None = None,
) -> dict:
    """The search stage: the iterative search over merged proxies. Writes the
    transcript and the result document, and returns the result."""
    plan = config.sample_plan()
    evaluator = ProxyEvaluator(components, lab.tasks)
    best, transcript = mixture_search.run_search(
        evaluator,
        [c.id for c in lab.candidates],
        plan,
        config.predictor(),
        benchmark_domains=lab.domain_of_benchmarks(),
    )
    if transcript_path is not None:
        transcript_path.write_text(transcript.to_jsonl())
    result = {
        "best_mixture": best.as_dict(),
        "evaluations": len(transcript.evaluations),
        "planned_evaluations": plan.total_evaluations(),
        "evaluator_calls": evaluator.calls,
        "fits": [
            {"after_iteration": f.after_iteration, "n_observations": f.n_observations}
            for f in transcript.fits
        ],
        "final_pool_size": plan.final_candidate_pool,
        "final_top_k": plan.top_k_average,
    }
    _dump_json(result_path, result)
    return result


class _RunLock:
    """An exclusive ``flock`` on ``run_dir/.lock``. The kernel releases it when
    its holder exits, even on SIGKILL, so a killed run never blocks the next.
    The file is never removed: removing it would let two runs lock different
    inodes."""

    def __init__(self, run_dir: Path):
        self.path = run_dir / ".lock"
        self.fd = -1

    def __enter__(self):
        self.fd = os.open(self.path, os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(self.fd)
            raise PipelineError(
                f"run directory is locked by another process ({self.path})"
            ) from None
        return self

    def __exit__(self, *exc):
        os.close(self.fd)
        return False


def run_pipeline(config: ExperimentConfig, run_root: str | None = None) -> ExperimentManifest:
    """Execute all stages for a config, reusing cached results where valid."""
    root = Path(run_root if run_root is not None else config.run_root)
    run_dir = root / config.content_hash()
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = run_dir / "manifest.json"
    if manifest_path.exists():
        manifest = ExperimentManifest.load(manifest_path)
        if manifest.config_hash != config.content_hash():
            raise PipelineError("manifest in run directory belongs to a different config")
    else:
        manifest = ExperimentManifest(
            config=config.resolved(),
            config_hash=config.content_hash(),
            run_dir=str(run_dir),
            created_at=time.time(),
        )
    manifest.run_dir = str(run_dir)

    with _RunLock(run_dir):
        try:
            _run_stages(config, run_dir, manifest)
        finally:
            manifest.save(manifest_path)
    return manifest


def _outputs_exist(run_dir: Path, record: dict) -> bool:
    return all((run_dir / rel).exists() for rel in record.get("outputs", {}).values())


def _execute(manifest, run_dir: Path, name: str, stage_hash: str, outputs: dict, fn) -> bool:
    """Run one stage unless its hash matches and outputs are present."""
    record = manifest.stage(name)
    if (
        record["status"] == "done"
        and record.get("hash") == stage_hash
        and _outputs_exist(run_dir, record)
    ):
        record["recomputed"] = False
        return False
    record.update(
        {"status": "running", "hash": stage_hash, "outputs": outputs, "recomputed": True}
    )
    record["started_at"] = time.time()
    # On disk before the stage writes anything, so a run killed inside the
    # stage leaves it marked running and the next run recomputes it.
    manifest.save(run_dir / "manifest.json")
    try:
        fn()
    except Exception as exc:
        record["status"] = "failed"
        record["error"] = f"{type(exc).__name__}: {exc}"
        raise
    record["status"] = "done"
    record["error"] = None
    record["finished_at"] = time.time()
    return True


def _run_stages(config: ExperimentConfig, run_dir: Path, manifest: ExperimentManifest) -> None:
    # The run directory is named by the config's content hash, so a stage's
    # hash needs to cover only its code version and its input files (each
    # read once per run).
    file_hashes: dict[Path, str] = {}

    def stage_hash(stage: str, input_paths: list[Path], **keys) -> str:
        for path in input_paths:
            if path not in file_hashes:
                file_hashes[path] = _file_hash(path)
        doc = {
            "inputs": {p.name: file_hashes[p] for p in input_paths},
            "version": STAGE_VERSIONS[stage],
            **keys,
        }
        return hashlib.blake2b(
            json.dumps(doc, sort_keys=True).encode("utf-8"), digest_size=16
        ).hexdigest()

    lab_path = run_dir / "lab.npz"
    _execute(
        manifest, run_dir, "lab", stage_hash("lab", []), {"lab": "lab.npz"},
        lambda: generate_lab(config, lab_path),
    )
    lab = toy_lab.load_lab(lab_path)

    component_files = {
        f"component_{cand.id}": f"component_{cand.id}.dmxt" for cand in lab.candidates
    }
    base_path = run_dir / "base.dmxt"
    _execute(
        manifest, run_dir, "components", stage_hash("components", [lab_path]),
        {"base": base_path.name, **component_files},
        lambda: train_components(config, lab, run_dir),
    )
    components = load_components(run_dir, lab)
    # Merging needs no base, so only the references stage reads and hashes it.
    component_paths = [run_dir / name for name in component_files.values()]

    if config.references.enabled:
        _execute(
            manifest, run_dir, "references", stage_hash("references", [lab_path, base_path]),
            {
                "ratios": "reference_ratios.json",
                "scores": "references.csv",
                "domains": "domains.csv",
            },
            lambda: train_references(config, lab, load_archive(base_path), run_dir),
        )

        def do_consistency():
            ids = [c.id for c in lab.candidates]
            ratios = [
                MixtureRatio(weights=[rd[c] for c in ids], candidate_ids=ids)
                for rd in json.loads((run_dir / "reference_ratios.json").read_text())
            ]
            reference = read_score_csv(run_dir / "references.csv", run_dir / "domains.csv")
            proxy = build_proxy_table(components, ratios, lab.tasks)
            write_score_csv(proxy, run_dir / "proxy_scores.csv")
            _dump_json(run_dir / "consistency.json", consistency_report(reference, proxy))

        consistency_inputs = [
            lab_path, run_dir / "reference_ratios.json", run_dir / "references.csv",
            run_dir / "domains.csv",
        ] + component_paths
        _execute(
            manifest, run_dir, "consistency", stage_hash("consistency", consistency_inputs),
            {"proxy_scores": "proxy_scores.csv", "consistency": "consistency.json"},
            do_consistency,
        )

    _execute(
        manifest, run_dir, "search", stage_hash("search", [lab_path] + component_paths),
        {"result": "search_result.json", "transcript": "transcript.jsonl"},
        lambda: search_mixture(
            config, lab, components, run_dir / "search_result.json", run_dir / "transcript.jsonl"
        ),
    )

    report_inputs = [run_dir / "search_result.json", run_dir / "transcript.jsonl"]
    if config.references.enabled:
        report_inputs.append(run_dir / "consistency.json")
    # The report shows the experiment name, the one field the run directory's
    # name leaves out.
    _execute(
        manifest, run_dir, "report", stage_hash("report", report_inputs, name=config.name),
        {"report": "report.json"},
        lambda: _dump_json(run_dir / "report.json", _build_report(config, run_dir)),
    )


def _build_report(config: ExperimentConfig, run_dir: Path) -> dict:
    search_result = json.loads((run_dir / "search_result.json").read_text())
    transcript_lines = [
        json.loads(line)
        for line in (run_dir / "transcript.jsonl").read_text().splitlines()
        if line.strip()
    ]
    per_iteration: dict[str, int] = {}
    for entry in transcript_lines:
        key = str(entry["iteration"])
        per_iteration[key] = per_iteration.get(key, 0) + 1
    report = {
        "experiment": {"name": config.name, "seed": config.seed},
        "optimal_mixture": search_result["best_mixture"],
        "proxy_budget": {
            "planned": search_result["planned_evaluations"],
            "used": search_result["evaluations"],
            "per_iteration": per_iteration,
        },
        "search": {
            "final_pool_size": search_result["final_pool_size"],
            "final_top_k": search_result["final_top_k"],
            # The only method; kept so the report's bytes stay the same.
            "merge_method": "linear",
        },
    }
    consistency_path = run_dir / "consistency.json"
    if consistency_path.exists():
        report["consistency"] = json.loads(consistency_path.read_text())
    return report


def load_report(manifest: ExperimentManifest) -> dict:
    """Read the machine-readable summary for a manifest's run."""
    stage = manifest.stages.get("report")
    if not stage or stage.get("status") != "done":
        raise PipelineError("report: pipeline has not completed the report stage")
    path = Path(manifest.run_dir) / "report.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise PipelineError(f"report: {path} is missing; rerun the pipeline") from None
    except ValueError as exc:
        raise PipelineError(f"report: {path} is not JSON: {exc}") from None


def format_report(report: dict) -> str:
    """Human-readable rendering of the machine summary."""
    lines = [f"experiment {report['experiment']['name']} (seed {report['experiment']['seed']})"]
    lines.append("optimal mixture:")
    for cid, w in sorted(report["optimal_mixture"].items()):
        lines.append(f"  {cid}: {w:.4f}")
    budget = report["proxy_budget"]
    lines.append(f"proxy evaluations: {budget['used']} used / {budget['planned']} planned")
    if "consistency" in report:
        cons = report["consistency"]
        lines.append(
            f"proxy consistency over {cons['n_models']} references: "
            f"macro rho {cons['macro_avg_rho']:.3f}, "
            f"mean capability recovery {cons['mean_capability_recovery']:.3f}"
        )
        for domain in sorted(cons["per_domain_rho"]):
            lines.append(f"  rho[{domain}] = {cons['per_domain_rho'][domain]:.3f}")
    return "\n".join(lines)
