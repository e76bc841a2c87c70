"""Tests for the pipeline orchestrator: caching, determinism, reports."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import demix
from demix import toy_lab
from demix.config import ExperimentConfig, load_config
from demix.errors import PipelineError, ValidationError
from demix.eval_metrics import consistency_report
from demix.pipeline import (
    ExperimentManifest,
    ProxyEvaluator,
    _RunLock,
    build_proxy_table,
    format_report,
    load_report,
    read_score_csv,
    run_pipeline,
    write_score_csv,
)

SMALL_CONFIG = """
[experiment]
name = small
seed = 3

[lab]
n_domains = 3
feature_dim = 13
examples_per_domain = 300
general_examples = 300
benchmark_examples = 128

[training]
steps = 60
base_steps = 60

[references]
enabled = true
count = 10

[search]
plan = 8,4
pool = 1500
top_k = 16
gbdt_rounds = 60
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL_CONFIG)
    return path


def recomputed_stages(manifest):
    return sorted(n for n, rec in manifest.stages.items() if rec.get("recomputed"))


def test_pipeline_runs_and_report_is_complete(config_path, tmp_path):
    manifest = run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    assert all(rec["status"] == "done" for rec in manifest.stages.values())
    report = load_report(manifest)
    mixture = report["optimal_mixture"]
    assert sum(mixture.values()) == pytest.approx(1.0, abs=1e-9)
    assert report["proxy_budget"]["used"] == report["proxy_budget"]["planned"] == 12
    assert "consistency" in report
    text = format_report(report)
    assert "optimal mixture" in text
    # machine-readable summary round-trips through its own parser
    raw = (Path(manifest.run_dir) / "report.json").read_text()
    assert json.loads(raw) == report


def test_rerun_with_same_config_is_a_complete_noop(config_path, tmp_path):
    first = run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    assert recomputed_stages(first) == ["components", "consistency", "lab", "references", "report", "search"]
    transcript_before = (Path(first.run_dir) / "transcript.jsonl").read_bytes()
    second = run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    assert recomputed_stages(second) == []
    assert (Path(second.run_dir) / "transcript.jsonl").read_bytes() == transcript_before


def test_deleting_an_artifact_recomputes_only_that_stage_and_downstream(config_path, tmp_path):
    manifest = run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    (Path(manifest.run_dir) / "search_result.json").unlink()
    again = run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    redone = recomputed_stages(again)
    assert "search" in redone
    assert {"lab", "components", "references", "consistency"}.isdisjoint(redone)


def test_editing_domains_csv_recomputes_consistency(config_path, tmp_path):
    manifest = run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    domains = Path(manifest.run_dir) / "domains.csv"
    header, *rows = domains.read_text().splitlines()
    domains.write_text("\n".join([header] + rows[::-1]) + "\n")  # the same mapping
    again = run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    assert recomputed_stages(again) == ["consistency"]
    domains.write_text(domains.read_text().replace(",dom2", ",dom1"))
    with pytest.raises(ValidationError, match="domain mappings differ"):
        run_pipeline(load_config(config_path), run_root=tmp_path / "runs")


def test_regenerated_artifacts_are_byte_identical_across_roots(config_path, tmp_path):
    one = run_pipeline(load_config(config_path), run_root=tmp_path / "runs_one")
    two = run_pipeline(load_config(config_path), run_root=tmp_path / "runs_two")
    for name in ("report.json", "transcript.jsonl", "search_result.json", "consistency.json"):
        assert (Path(one.run_dir) / name).read_bytes() == (Path(two.run_dir) / name).read_bytes()


def test_search_stage_never_trains(config_path, tmp_path, monkeypatch):
    config = load_config(config_path)
    run_root = tmp_path / "runs"
    manifest = run_pipeline(config, run_root=run_root)
    (Path(manifest.run_dir) / "search_result.json").unlink()
    (Path(manifest.run_dir) / "report.json").unlink()

    def forbidden(*args, **kwargs):
        raise AssertionError("search stage must not train")

    monkeypatch.setattr(toy_lab, "train", forbidden)
    again = run_pipeline(config, run_root=run_root)
    assert "search" in recomputed_stages(again)


def test_lock_file_blocks_concurrent_runs(config_path, tmp_path):
    config = load_config(config_path)
    run_root = tmp_path / "runs"
    run_dir = Path(run_root) / config.content_hash()
    run_dir.mkdir(parents=True)
    with _RunLock(run_dir):
        with pytest.raises(PipelineError, match="locked"):
            run_pipeline(config, run_root=run_root)
    run_pipeline(config, run_root=run_root)  # lock released


def test_a_killed_run_does_not_lock_its_run_directory(config_path, tmp_path):
    config = load_config(config_path)
    run_root = tmp_path / "runs"
    run_dir = run_root / config.content_hash()
    run_dir.mkdir(parents=True)
    holder = (
        "import sys, time\n"
        "from pathlib import Path\n"
        "from demix.pipeline import _RunLock\n"
        "with _RunLock(Path(sys.argv[1])):\n"
        "    print('locked', flush=True)\n"
        "    time.sleep(600)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(demix.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-c", holder, str(run_dir)], env=env, stdout=subprocess.PIPE
    )
    try:
        assert proc.stdout.readline() == b"locked\n"
        with pytest.raises(PipelineError, match="locked"):
            run_pipeline(config, run_root=run_root)
    finally:
        proc.send_signal(signal.SIGKILL)  # the holder never reaches __exit__
        proc.wait(timeout=60)
        proc.stdout.close()
    assert (run_dir / ".lock").exists()
    manifest = run_pipeline(config, run_root=run_root)
    assert all(rec["status"] == "done" for rec in manifest.stages.values())


def test_manifest_round_trips(config_path, tmp_path):
    manifest = run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    loaded = ExperimentManifest.load(Path(manifest.run_dir) / "manifest.json")
    assert loaded.config_hash == manifest.config_hash
    assert set(loaded.stages) == set(manifest.stages)


def test_score_csv_round_trip(tmp_path):
    from demix.merge_engine import MixtureRatio

    rng = np.random.default_rng(0)
    lab = toy_lab.make_domains(2, 8, seed=1)
    config = toy_lab.ComponentTrainingConfig(seed=1, steps=30)
    base, comps = toy_lab.prepare_components(lab.candidates, lab.general, config)
    ratios = [
        MixtureRatio(weights=rng.dirichlet(np.ones(2)), candidate_ids=["dom0", "dom1"])
        for _ in range(3)
    ]
    table = build_proxy_table(comps, ratios, lab.tasks, base=base)
    write_score_csv(table, tmp_path / "scores.csv", tmp_path / "domains.csv")
    loaded = read_score_csv(tmp_path / "scores.csv", tmp_path / "domains.csv")
    assert loaded.rows == table.rows
    assert loaded.domain_of == table.domain_of


def test_proxy_evaluator_counts_calls():
    lab = toy_lab.make_domains(2, 8, seed=2)
    config = toy_lab.ComponentTrainingConfig(seed=2, steps=30)
    base, comps = toy_lab.prepare_components(lab.candidates, lab.general, config)
    from demix.merge_engine import MergeSpec, MixtureRatio

    evaluator = ProxyEvaluator(comps, lab.tasks, MergeSpec(method="linear"), base)
    ev = evaluator(MixtureRatio(weights=[0.5, 0.5], candidate_ids=["dom0", "dom1"]))
    assert evaluator.calls == 1
    assert set(ev) == {t.id for t in lab.tasks}


def test_consistency_helper_reports_recovery():
    lab = toy_lab.make_domains(3, 13, seed=4, shared_dims=4)
    config = toy_lab.ComponentTrainingConfig(seed=4, steps=60, base_steps=60)
    base, comps = toy_lab.prepare_components(lab.candidates, lab.general, config)
    from demix.mixture_search import sample_simplex

    ids = [c.id for c in lab.candidates]
    ratios = sample_simplex(3, 10, seed=9, candidate_ids=ids)
    reference = toy_lab.build_reference_set(lab.candidates, lab.general, ratios, base, lab.tasks, config)
    proxy = build_proxy_table(comps, ratios, lab.tasks, base=base)
    report = consistency_report(reference, proxy)
    assert set(report["per_domain_rho"]) == {"dom0", "dom1", "dom2"}
    assert report["mean_capability_recovery"] > 0.5
    assert report["n_models"] == 10
