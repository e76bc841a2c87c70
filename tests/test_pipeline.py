"""Tests for the pipeline orchestrator: caching, determinism, reports."""

import errno
import gc
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import in_child_only, needs_fork

import demix
from demix import cli, forking, merge_engine, mixture_search, pipeline, tensor_store, toy_lab
from demix.config import ExperimentConfig, LabSection, load_config
from demix.errors import PipelineError, SearchError, TrainingError, ValidationError
from demix.eval_metrics import consistency_report
from demix.pipeline import (
    ExperimentManifest,
    _RunLock,
    format_report,
    load_report,
    proxy_scores,
    read_score_csv,
    run_pipeline,
    score_table,
    write_score_csv,
)

SMALL_CONFIG = """
[experiment]
name = small
seed = 3

[lab]
n_domains = 3
feature_dim = 13

[training]
steps = 60
base_steps = 60

[references]
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


# The stage that writes each file of a SMALL_CONFIG run.
PRODUCER = {
    "lab.npz": "lab",
    "base.dmxt": "components",
    **{f"component_dom{k}.dmxt": "components" for k in range(3)},
    "reference_ratios.json": "references",
    "references.csv": "references",
    "domains.csv": "references",
    "proxy_scores.csv": "consistency",
    "consistency.json": "consistency",
    "search_result.json": "search",
    "transcript.jsonl": "search",
    "report.json": "report",
}


# The files some stage reads, which a run digests. reference_ratios.json and
# transcript.jsonl are only for readers.
INPUTS = sorted(
    set(PRODUCER) - {"reference_ratios.json", "proxy_scores.csv", "transcript.jsonl", "report.json"}
)


def hashed_files(monkeypatch) -> list[str]:
    """The names of the files that ``pipeline._file_hash`` reads from now on."""
    names = []
    file_hash = pipeline._file_hash

    def recording(path):
        names.append(Path(path).name)
        return file_hash(path)

    monkeypatch.setattr(pipeline, "_file_hash", recording)
    return names


@pytest.fixture(scope="module")
def cold_root(tmp_path_factory):
    """The run root of one cold SMALL_CONFIG run, to be copied, never changed."""
    root = tmp_path_factory.mktemp("cold")
    (root / "exp.cfg").write_text(SMALL_CONFIG)
    run_pipeline(load_config(root / "exp.cfg"), run_root=root / "runs")
    return root / "runs"


@pytest.fixture()
def warm_root(cold_root, tmp_path):
    return Path(shutil.copytree(cold_root, tmp_path / "runs"))


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


def test_a_cold_run_writes_exactly_the_declared_outputs(warm_root):
    (run_dir,) = warm_root.iterdir()
    assert sorted(p.name for p in run_dir.iterdir()) == sorted(
        [*PRODUCER, "manifest.json", ".lock"]
    )


@pytest.mark.parametrize("output", sorted(PRODUCER))
def test_deleting_an_output_recomputes_exactly_the_stage_that_writes_it(
    config_path, warm_root, output
):
    (run_dir,) = warm_root.iterdir()
    before = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.name in PRODUCER}
    (run_dir / output).unlink()
    again = run_pipeline(load_config(config_path), run_root=warm_root)
    # The stage rewrites the same bytes, so no stage downstream sees a change.
    assert recomputed_stages(again) == [PRODUCER[output]]
    assert {name: (run_dir / name).read_bytes() for name in before} == before


def test_a_cached_run_loads_neither_the_lab_nor_a_component(config_path, warm_root, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a cached run must load nothing")

    monkeypatch.setattr(toy_lab, "load_lab", forbidden)
    monkeypatch.setattr(toy_lab, "load_tasks", forbidden)
    monkeypatch.setattr(tensor_store, "load_archive", forbidden)
    monkeypatch.setattr(pipeline, "load_archive", forbidden)
    assert recomputed_stages(run_pipeline(load_config(config_path), run_root=warm_root)) == []


@pytest.mark.parametrize("path", [pytest.param("forked", marks=needs_fork), "in-process", "search-rerun"])
def test_the_search_starts_after_the_labs_training_sets_are_freed(
    config_path, tmp_path, monkeypatch, forks, path
):
    config = load_config(config_path)
    run_root = tmp_path / "runs"
    if path == "search-rerun":  # only the search is stale: it reads the benchmarks alone
        manifest = run_pipeline(config, run_root=run_root)
        (Path(manifest.run_dir) / "search_result.json").unlink()
        forks.clear()
    if path == "in-process":
        monkeypatch.setattr(forking, "can_fork", lambda: False)
    loads, training_arrays, alive_at_search = [], [], []
    load_lab, run_search = toy_lab.load_lab, mixture_search.run_search

    def recording_load(lab_path):
        lab = load_lab(lab_path)
        loads.append(lab_path)
        training_arrays.extend(
            weakref.ref(array) for ds in [*lab.candidates, lab.general] for array in (ds.X, ds.y)
        )
        return lab

    def checking_search(*args, **kwargs):
        alive_at_search.append(sum(ref() is not None for ref in training_arrays))
        return run_search(*args, **kwargs)

    monkeypatch.setattr(toy_lab, "load_lab", recording_load)
    monkeypatch.setattr(mixture_search, "run_search", checking_search)
    manifest = run_pipeline(config, run_root=run_root)
    assert "search" in recomputed_stages(manifest)
    assert len(forks) == (path == "forked")
    # Never loaded again after the training sets were dropped, and not at all
    # when no stage trains.
    trains = path != "search-rerun"
    assert len(loads) == trains
    assert len(training_arrays) == trains * 2 * (config.lab.n_domains + 1)
    assert alive_at_search == [0]


def test_search_result_holds_only_what_the_search_computed(config_path, warm_root):
    (run_dir,) = warm_root.iterdir()
    result = json.loads((run_dir / "search_result.json").read_text())
    assert sorted(result) == ["best_mixture", "evaluations", "planned_evaluations"]
    assert result["evaluations"] == result["planned_evaluations"] == 12
    # The report takes what only restates [search] from the config.
    search = load_config(config_path).search
    report = json.loads((run_dir / "report.json").read_text())
    assert report["proxy_budget"] == {
        "planned": search.total_evaluations(), "used": 12, "per_iteration": {"0": 8, "1": 4}
    }
    assert report["search"] == {
        "final_pool_size": search.pool, "final_top_k": search.top_k, "merge_method": "linear"
    }


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


def test_a_rerun_with_recorded_stamps_hashes_no_file(config_path, warm_root, monkeypatch):
    monkeypatch.setattr(pipeline, "RACY_WINDOW_NS", 0)
    manifest = run_pipeline(load_config(config_path), run_root=warm_root)
    assert sorted(manifest.files) == INPUTS

    def forbidden(path):
        raise AssertionError(f"{path} was hashed although its stamp is recorded")

    monkeypatch.setattr(pipeline, "_file_hash", forbidden)
    assert recomputed_stages(run_pipeline(load_config(config_path), run_root=warm_root)) == []


def test_a_same_size_rewrite_with_its_old_mtime_recomputes_consistency(
    config_path, tmp_path, monkeypatch
):
    monkeypatch.setattr(pipeline, "RACY_WINDOW_NS", 0)
    run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    # Recorded by a warm run: a forked child's stamps are not kept.
    manifest = run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    assert "domains.csv" in manifest.files
    domains = Path(manifest.run_dir) / "domains.csv"
    before = domains.stat()
    header, *rows = domains.read_text().splitlines()
    domains.write_text("\n".join([header] + rows[::-1]) + "\n")  # the same mapping
    os.utime(domains, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = domains.stat()
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
        before.st_ino, before.st_size, before.st_mtime_ns
    )
    again = run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    assert recomputed_stages(again) == ["consistency"]


def test_a_copied_run_directory_hashes_each_input_once(config_path, warm_root, tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "RACY_WINDOW_NS", 0)
    run_pipeline(load_config(config_path), run_root=warm_root)  # records the stamps
    copy = Path(shutil.copytree(warm_root, tmp_path / "copy"))
    hashed = hashed_files(monkeypatch)
    assert recomputed_stages(run_pipeline(load_config(config_path), run_root=copy)) == []
    assert sorted(hashed) == INPUTS
    hashed.clear()
    assert recomputed_stages(run_pipeline(load_config(config_path), run_root=copy)) == []
    assert hashed == []


def test_a_rerun_that_changes_nothing_does_not_save_the_manifest(config_path, warm_root, monkeypatch):
    monkeypatch.setattr(pipeline, "RACY_WINDOW_NS", 0)
    (run_dir,) = warm_root.iterdir()
    run_pipeline(load_config(config_path), run_root=warm_root)  # records stamps, clears `recomputed`
    before = (run_dir / "manifest.json").stat()

    def forbidden(self, path):
        raise AssertionError(f"{path} was saved although nothing in it changed")

    monkeypatch.setattr(ExperimentManifest, "save", forbidden)
    assert recomputed_stages(run_pipeline(load_config(config_path), run_root=warm_root)) == []
    after = (run_dir / "manifest.json").stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


@pytest.mark.parametrize("how", ["copied", "moved"])
def test_a_run_directory_in_a_new_place_rewrites_its_manifest_to_name_it(
    config_path, warm_root, tmp_path, monkeypatch, how
):
    monkeypatch.setattr(pipeline, "RACY_WINDOW_NS", 0)
    run_pipeline(load_config(config_path), run_root=warm_root)  # records the stamps
    # A moved directory keeps its files' stamps, so only run_dir is stale.
    place = shutil.copytree if how == "copied" else shutil.move
    root = Path(place(warm_root, tmp_path / how))
    (run_dir,) = root.iterdir()
    assert json.loads((run_dir / "manifest.json").read_text())["run_dir"] != str(run_dir)
    assert recomputed_stages(run_pipeline(load_config(config_path), run_root=root)) == []
    assert json.loads((run_dir / "manifest.json").read_text())["run_dir"] == str(run_dir)


def test_a_file_changed_within_the_racy_window_is_hashed_again(config_path, tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "RACY_WINDOW_NS", 0)
    run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    # Recorded by a warm run: a forked child's stamps are not kept.
    manifest = run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    domains = Path(manifest.run_dir) / "domains.csv"
    header, *rows = domains.read_text().splitlines()
    domains.write_text("\n".join([header] + rows[::-1]) + "\n")
    # Every file written in the last hour is inside the window now.
    monkeypatch.setattr(pipeline, "RACY_WINDOW_NS", 3600 * 10**9)
    hashed = hashed_files(monkeypatch)
    again = run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    assert recomputed_stages(again) == ["consistency"]
    assert "domains.csv" not in again.files
    hashed.clear()
    assert recomputed_stages(run_pipeline(load_config(config_path), run_root=tmp_path / "runs")) == []
    # The consistency stage rewrote consistency.json, inside the window too.
    assert sorted(hashed) == ["consistency.json", "domains.csv"]


def test_a_file_changed_while_hashed_is_not_stamped(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "RACY_WINDOW_NS", 0)
    path = tmp_path / "domains.csv"
    path.write_text("benchmark_id,domain\n")
    file_hash = pipeline._file_hash

    def hash_then_append(p):
        digest = file_hash(p)
        with open(p, "a") as fh:
            fh.write("b0,dom0\n")
        return digest

    monkeypatch.setattr(pipeline, "_file_hash", hash_then_append)
    files = {}
    pipeline._input_digest(tmp_path, "domains.csv", files)
    assert files == {}
    monkeypatch.setattr(pipeline, "_file_hash", file_hash)
    assert pipeline._input_digest(tmp_path, "domains.csv", files) == file_hash(path)
    assert files["domains.csv"]["digest"] == file_hash(path)


def test_a_run_hashes_its_config_once(config_path, warm_root, monkeypatch):
    calls = []
    content_hash = ExperimentConfig.content_hash

    def counting(self):
        calls.append(self)
        return content_hash(self)

    monkeypatch.setattr(ExperimentConfig, "content_hash", counting)
    assert recomputed_stages(run_pipeline(load_config(config_path), run_root=warm_root)) == []
    assert len(calls) == 1


@pytest.mark.parametrize(
    "lab, names",
    [
        ({}, ("7f01b0ec6f038809", "01ab897aa286f066")),
        (
            {"n_domains": 8, "feature_dim": 256, "family": "mlp_1hidden", "hidden_units": 64},
            ("2b1ef9d2f2d5680e", "e27c184268d35f6c"),
        ),
    ],
)
def test_run_directory_names_are_pinned(lab, names):
    # The content hash covers every section's field names, so renaming a key
    # would orphan every run directory made before the rename.
    got = tuple(ExperimentConfig(seed=seed, lab=LabSection(**lab)).content_hash() for seed in (0, 1))
    assert got == names


def test_a_changed_base_reruns_the_references_but_not_the_search(config_path, tmp_path):
    manifest = run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    run_dir = Path(manifest.run_dir)
    result = (run_dir / "search_result.json").read_bytes()
    # A different valid archive of the same schema: merging never reads the base.
    (run_dir / "base.dmxt").write_bytes((run_dir / "component_dom0.dmxt").read_bytes())
    again = run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    redone = recomputed_stages(again)
    assert "references" in redone
    assert {"lab", "components", "search"}.isdisjoint(redone)
    assert (run_dir / "search_result.json").read_bytes() == result


def test_a_new_code_fingerprint_recomputes_every_stage(config_path, warm_root, monkeypatch):
    (run_dir,) = warm_root.iterdir()
    before = {name: (run_dir / name).read_bytes() for name in PRODUCER}
    monkeypatch.setattr(pipeline, "_code_fingerprint", lambda: "other code")
    # Every stage is stale, so where the process can fork the child sees the patch too.
    again = run_pipeline(load_config(config_path), run_root=warm_root)
    assert recomputed_stages(again) == sorted(set(PRODUCER.values()))
    # The code is the same, so it writes the same bytes.
    assert {name: (run_dir / name).read_bytes() for name in PRODUCER} == before


STAGES = ["lab", "components", "references", "consistency", "search", "report"]


def demix_run(package_root: Path, config_path, run_root, hash_seed: str) -> list[str]:
    """The stage lines that ``python -m demix.cli run`` prints in a fresh
    interpreter that imports demix from ``package_root`` (runpy runs the
    module as ``-m`` does, after a check of which demix was imported)."""
    code = (
        "import runpy, demix\n"
        "print(demix.__file__, flush=True)\n"
        "runpy.run_module('demix.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "run", "--config", str(config_path), "--run-root", str(run_root)],
        env={**os.environ, "PYTHONPATH": str(package_root), "PYTHONHASHSEED": hash_seed},
        cwd=run_root.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    imported, _run_dir, *lines = proc.stdout.splitlines()
    assert Path(imported) == package_root / "demix" / "__init__.py"
    return lines[: len(STAGES)]


def test_a_rerun_in_a_process_with_another_hash_seed_recomputes_nothing(config_path, tmp_path):
    package_root = Path(demix.__file__).resolve().parents[1]
    runs = tmp_path / "runs"
    assert demix_run(package_root, config_path, runs, "1") == [f"  {s}: done (ran)" for s in STAGES]
    assert demix_run(package_root, config_path, runs, "2") == [f"  {s}: done (cached)" for s in STAGES]


def test_an_edit_to_the_code_recomputes_every_stage(config_path, warm_root, tmp_path):
    (run_dir,) = warm_root.iterdir()
    result = (run_dir / "search_result.json").read_bytes()
    package_root = tmp_path / "edited"
    shutil.copytree(
        Path(demix.__file__).parent, package_root / "demix", ignore=shutil.ignore_patterns("__pycache__")
    )
    lab_code = package_root / "demix" / "toy_lab.py"
    source = lab_code.read_text()
    assert "\nNOISE_STD = 0.05\n" in source
    lab_code.write_text(source.replace("\nNOISE_STD = 0.05\n", "\nNOISE_STD = 0.5\n"))
    assert demix_run(package_root, config_path, warm_root, "1") == [f"  {s}: done (ran)" for s in STAGES]
    assert (run_dir / "search_result.json").read_bytes() != result
    assert demix_run(package_root, config_path, warm_root, "2") == [f"  {s}: done (cached)" for s in STAGES]


def test_a_run_reads_the_manifest_after_taking_the_lock(config_path, warm_root, monkeypatch):
    (run_dir,) = warm_root.iterdir()
    result_path = run_dir / "search_result.json"
    expected = result_path.read_bytes()
    enter = _RunLock.__enter__

    def another_run_finishes_first(self):
        # What a run holding the lock could leave: a new search hash and result.
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["stages"]["search"]["hash"] = "0" * 32
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        result = json.loads(expected)
        result["best_mixture"] = {"dom0": 1.0, "dom1": 0.0, "dom2": 0.0}
        result_path.write_text(json.dumps(result))
        return enter(self)

    monkeypatch.setattr(_RunLock, "__enter__", another_run_finishes_first)
    again = run_pipeline(load_config(config_path), run_root=warm_root)
    assert "search" in recomputed_stages(again)
    assert result_path.read_bytes() == expected


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
    again = run_pipeline(config, run_root=run_root)  # only the search is stale: no child
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


def test_a_stage_killed_after_a_partial_write_is_recomputed(config_path, tmp_path):
    config = load_config(config_path)
    run_root = tmp_path / "runs"
    first = run_pipeline(config, run_root=run_root)
    result_path = Path(first.run_dir) / "search_result.json"
    expected = result_path.read_bytes()
    result_path.unlink()
    killer = (
        "import os, sys\n"
        "from demix import pipeline\n"
        "from demix.config import load_config\n"
        "def search_then_die(config, tasks, candidate_ids, components, result_path, transcript_path):\n"
        "    result_path.write_text('{\"best_mixture\": {')\n"
        "    os._exit(9)\n"
        "pipeline.search_mixture = search_then_die\n"
        "pipeline.run_pipeline(load_config(sys.argv[1]), run_root=sys.argv[2])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(demix.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", killer, str(config_path), str(run_root)], env=env, timeout=300
    )
    assert proc.returncode == 9
    assert result_path.read_bytes() != expected  # the partial file is on disk
    again = run_pipeline(config, run_root=run_root)
    assert "search" in recomputed_stages(again)
    assert result_path.read_bytes() == expected


def test_a_write_killed_part_way_leaves_no_temp_file_after_the_next_run(config_path, tmp_path):
    config = load_config(config_path)
    run_root = tmp_path / "runs"
    first = run_pipeline(config, run_root=run_root)
    run_dir = Path(first.run_dir)
    expected = (run_dir / "search_result.json").read_bytes()
    (run_dir / "search_result.json").unlink()
    killer = (
        "import os, sys\n"
        "from demix import pipeline, tensor_store\n"
        "from demix.config import load_config\n"
        "def search_then_die(config, tasks, candidate_ids, components, result_path, transcript_path):\n"
        "    with tensor_store.atomic_write(result_path) as fh:\n"
        "        fh.write(b'{\"best_mixture\": {')\n"
        "        fh.flush()\n"
        "        os._exit(9)\n"
        "pipeline.search_mixture = search_then_die\n"
        "pipeline.run_pipeline(load_config(sys.argv[1]), run_root=sys.argv[2])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(demix.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", killer, str(config_path), str(run_root)], env=env, timeout=300
    )
    assert proc.returncode == 9
    (litter,) = run_dir.glob("*.tmp")
    assert re.fullmatch(r"search_result\.json\.[0-9]+\.tmp", litter.name)
    again = run_pipeline(config, run_root=run_root)
    assert "search" in recomputed_stages(again)
    assert list(run_dir.glob("*.tmp")) == []
    assert (run_dir / "search_result.json").read_bytes() == expected


@needs_fork
def test_a_forked_run_writes_the_same_files_as_an_in_process_run(config_path, tmp_path, forks, monkeypatch):
    forked = run_pipeline(load_config(config_path), run_root=tmp_path / "forked")
    assert len(forks) == 1
    monkeypatch.setattr(forking, "can_fork", lambda: False)
    in_process = run_pipeline(load_config(config_path), run_root=tmp_path / "in_process")
    assert len(forks) == 1
    one, two = Path(forked.run_dir), Path(in_process.run_dir)
    assert sorted(p.name for p in one.iterdir()) == sorted(p.name for p in two.iterdir())
    for name in PRODUCER:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
    fields = lambda manifest: {
        name: (rec["status"], rec["hash"], rec["recomputed"]) for name, rec in manifest.stages.items()
    }
    assert list(forked.stages) == STAGES and fields(forked) == fields(in_process)
    assert sorted(forked.files) == sorted(in_process.files)
    assert forked.stages["references"]["started_at"] < forked.stages["search"]["finished_at"]


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "in-process"])
def test_a_failed_references_stage_is_the_same_error_with_or_without_the_child(
    tmp_path, capsys, monkeypatch, fork
):
    if fork and not forking.can_fork():
        pytest.skip("forks only from a single-threaded process with two CPUs")
    monkeypatch.setattr(forking, "can_fork", lambda: fork)

    def diverges(lab, base, config, ratios):
        raise TrainingError(f"training at ratio {ratios[1].as_dict()}: loss diverged", model=1)

    monkeypatch.setattr(toy_lab, "trained_scores", in_child_only(diverges) if fork else diverges)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CONFIG)
    assert cli.main(["run", "--config", str(cfg), "--run-root", str(tmp_path / "cli")]) == 4
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: training at ratio \{'dom0': .*\}: loss diverged\n", err)
    with pytest.raises(TrainingError, match="loss diverged") as raised:
        run_pipeline(load_config(cfg), run_root=tmp_path / "runs")
    assert raised.value.model == 1 and f"error: {raised.value}\n" == err
    (manifest_path,) = (tmp_path / "runs").glob("*/manifest.json")
    references = json.loads(manifest_path.read_text())["stages"]["references"]
    assert references["status"] == "failed"
    assert references["error"] == f"TrainingError: {raised.value}"


class TwoPartError(Exception):
    """An exception that pickles but cannot be unpickled: its args are not
    the arguments of its constructor."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@needs_fork
def test_a_child_error_that_cannot_be_unpickled_is_a_pipeline_error_naming_it(
    config_path, tmp_path, monkeypatch
):
    def fails(*args):
        raise TwoPartError("no references", "mix_000")

    monkeypatch.setattr(toy_lab, "trained_scores", in_child_only(fails))
    with pytest.raises(PipelineError, match="^TwoPartError: no references at mix_000$"):
        run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    (manifest_path,) = (tmp_path / "runs").glob("*/manifest.json")
    references = json.loads(manifest_path.read_text())["stages"]["references"]
    assert references["error"] == "TwoPartError: no references at mix_000"


@needs_fork
def test_a_killed_child_is_a_pipeline_error_and_the_next_run_recomputes_its_stages(
    config_path, tmp_path, forks, monkeypatch
):
    trained_scores = toy_lab.trained_scores

    def killed(*args):
        # Killed only if the manifest on disk marks the stage running, as the
        # next run must find it after a kill; otherwise the stage fails.
        (manifest_path,) = (tmp_path / "runs").glob("*/manifest.json")
        if json.loads(manifest_path.read_text())["stages"]["references"]["status"] == "running":
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(toy_lab, "trained_scores", in_child_only(killed))
    with pytest.raises(PipelineError, match=r"^references: .* killed by signal 9$"):
        run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    assert len(forks) == 1
    (manifest_path,) = (tmp_path / "runs").glob("*/manifest.json")
    stages = json.loads(manifest_path.read_text())["stages"]
    assert stages["references"]["status"] == "failed" and stages["search"]["status"] == "done"
    monkeypatch.setattr(toy_lab, "trained_scores", trained_scores)
    again = run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    assert recomputed_stages(again) == ["consistency", "references", "report"]


@needs_fork
@pytest.mark.parametrize("child_fails", [False, True])
def test_the_child_is_reaped_when_the_search_fails(
    config_path, tmp_path, forks, monkeypatch, child_fails
):
    def search_fails(*args, **kwargs):
        raise SearchError("no search today")

    def references_fail(*args):
        raise TrainingError("no references today")

    monkeypatch.setattr(mixture_search, "run_search", search_fails)
    if child_fails:
        monkeypatch.setattr(toy_lab, "trained_scores", in_child_only(references_fail))
    # The first failure in stage order is the one raised.
    error = (TrainingError, "no references") if child_fails else (SearchError, "no search")
    with pytest.raises(error[0], match=error[1]):
        run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    (manifest_path,) = (tmp_path / "runs").glob("*/manifest.json")
    stages = json.loads(manifest_path.read_text())["stages"]
    statuses = ["failed", None] if child_fails else ["done", "done"]  # None: never reached
    assert [stages.get(name, {}).get("status") for name in STAGES[2:5]] == [*statuses, "failed"]


@pytest.mark.skipif(
    sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2, reason="forks only with two CPUs"
)
def test_a_plain_demix_run_runs_the_search_beside_the_consistency_stage(config_path, tmp_path):
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(demix.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "demix.cli", "run", "--config", str(config_path),
         "--run-root", str(tmp_path / "runs")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    (manifest_path,) = (tmp_path / "runs").glob("*/manifest.json")
    stages = json.loads(manifest_path.read_text())["stages"]
    # In one process the search starts only after the consistency stage ends.
    assert stages["search"]["started_at"] < stages["consistency"]["finished_at"]


def test_a_fork_that_fails_runs_the_stages_in_this_process(config_path, tmp_path, monkeypatch):
    def fails():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(forking, "can_fork", lambda: True)
    monkeypatch.setattr(os, "fork", fails)
    # Unreachable cycles from earlier tests can hold archive maps, each with a
    # descriptor; collect them so that the cyclic GC frees none mid-run.
    gc.collect()
    open_fds = len(os.listdir("/proc/self/fd"))
    fallen_back = run_pipeline(load_config(config_path), run_root=tmp_path / "fallen_back")
    # The run drops the archives it mapped as soon as it is done with them.
    assert str(tmp_path) not in Path("/proc/self/maps").read_text()
    gc.collect()
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert {name: rec["status"] for name, rec in fallen_back.stages.items()} == dict.fromkeys(STAGES, "done")
    assert recomputed_stages(fallen_back) == sorted(STAGES)
    monkeypatch.setattr(forking, "can_fork", lambda: False)
    in_process = run_pipeline(load_config(config_path), run_root=tmp_path / "in_process")
    one, two = Path(fallen_back.run_dir), Path(in_process.run_dir)
    for name in PRODUCER:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


@pytest.mark.parametrize("stale", [[], ["search_result.json"], ["consistency.json"],
                                   ["references.csv"]])
def test_a_rerun_with_one_branch_or_none_stale_never_forks(config_path, warm_root, monkeypatch, stale):
    def forbidden():
        raise AssertionError("forked although at most one branch is stale")

    monkeypatch.setattr(forking, "can_fork", lambda: True)
    monkeypatch.setattr(os, "fork", forbidden)
    (run_dir,) = warm_root.iterdir()
    for name in stale:
        (run_dir / name).unlink()
    again = run_pipeline(load_config(config_path), run_root=warm_root)
    assert recomputed_stages(again) == sorted(PRODUCER[name] for name in stale)


@pytest.mark.parametrize(
    "name, text",
    [
        ("search_result.json", '{"evaluations": 12}'),
        ("search_result.json", '{"best_mixture": {'),
        ("search_result.json", json.dumps({
            "best_mixture": [1, 2], "evaluations": 12, "planned_evaluations": 12})),
        ("consistency.json", '{"n_models": 10}'),
        ("consistency.json", "[]"),
    ],
    ids=["result-without-best-mixture", "result-not-json", "best-mixture-not-an-object",
         "consistency-without-rho", "consistency-not-an-object"],
)
def test_a_hand_edited_run_file_is_a_pipeline_error_naming_it(config_path, warm_root, name, text):
    (run_dir,) = warm_root.iterdir()
    (run_dir / name).write_text(text)
    with pytest.raises(PipelineError, match=re.escape(str(run_dir / name))):
        run_pipeline(load_config(config_path), run_root=warm_root)


def test_a_best_mixture_weight_that_is_not_a_number_is_an_error_naming_its_key(config_path, warm_root):
    (run_dir,) = warm_root.iterdir()
    path = run_dir / "search_result.json"
    doc = json.loads(path.read_text())
    doc["best_mixture"]["dom1"] = "0.5"
    path.write_text(json.dumps(doc))
    with pytest.raises(PipelineError, match=re.escape(
            f"{path}: not a search result: missing or of the wrong type: best_mixture.dom1")):
        run_pipeline(load_config(config_path), run_root=warm_root)


@pytest.mark.parametrize(
    "name, old, new",
    [("references.csv", "mix_000,", "zzz_000,"), ("domains.csv", ",dom0\n", ",dom1\n")],
    ids=["renamed-model", "remapped-benchmark"],
)
def test_a_reference_file_that_does_not_match_the_lab_is_an_error_naming_it(
    config_path, warm_root, name, old, new
):
    (run_dir,) = warm_root.iterdir()
    path = run_dir / name
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(ValidationError, match=re.escape(str(path))):
        run_pipeline(load_config(config_path), run_root=warm_root)


def test_a_hand_edited_references_header_exits_2_naming_the_file(config_path, warm_root, capsys):
    (run_dir,) = warm_root.iterdir()
    path = run_dir / "references.csv"
    path.write_text(path.read_text().replace("model_id,", "model,", 1))
    argv = ["run", "--config", str(config_path), "--run-root", str(warm_root)]
    assert cli.main(argv) == 2
    assert f"error: {path}: expected header model_id,benchmark_id,score" in capsys.readouterr().err


def test_a_manifest_of_another_config_exits_7_and_is_left_as_it_is(config_path, warm_root, capsys):
    (run_dir,) = warm_root.iterdir()
    path = run_dir / "manifest.json"
    doc = json.loads(path.read_text())
    doc["config_hash"] = "0" * len(doc["config_hash"])
    path.write_text(json.dumps(doc))
    argv = ["run", "--config", str(config_path), "--run-root", str(warm_root)]
    assert cli.main(argv) == 7
    assert "manifest in run directory belongs to a different config" in capsys.readouterr().err
    assert path.read_text() == json.dumps(doc)


def test_a_score_table_that_does_not_line_up_is_an_error_naming_its_file(config_path, warm_root):
    (run_dir,) = warm_root.iterdir()
    references = run_dir / "references.csv"
    lines = references.read_text().splitlines(keepends=True)
    references.write_text("".join(lines[:4] + lines[5:]))  # mix_001's first row
    with pytest.raises(ValidationError, match=re.escape(f"{references}: score table: model 'mix_001'")):
        run_pipeline(load_config(config_path), run_root=warm_root)


@pytest.mark.parametrize("name, header", [("references.csv", "model_id,benchmark_id"),
                                          ("domains.csv", "benchmark_id")])
def test_a_repeated_score_csv_row_is_an_error_naming_its_line(config_path, warm_root, name, header):
    (run_dir,) = warm_root.iterdir()
    path = run_dir / name
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines + lines[1:2]))  # the first row again, last
    with pytest.raises(ValidationError, match=re.escape(
            f"{path}:{len(lines) + 1}: repeated {header} '{','.join(lines[1].split(',')[:-1])}', "
            "first on line 2")):
        run_pipeline(load_config(config_path), run_root=warm_root)


def test_manifest_round_trips(config_path, tmp_path):
    manifest = run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    loaded, _ = ExperimentManifest.load(Path(manifest.run_dir) / "manifest.json")
    assert loaded.config_hash == manifest.config_hash
    assert set(loaded.stages) == set(manifest.stages)
    assert loaded.files == manifest.files


MANIFEST = {"config": {}, "config_hash": "h", "run_dir": ".", "stages": {}}


@pytest.mark.parametrize("files", [5, [], None, "lab.npz"])
def test_a_manifest_whose_files_is_not_an_object_is_a_pipeline_error(tmp_path, files):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**MANIFEST, "files": files}))
    with pytest.raises(PipelineError, match=re.escape(
            f"{path}: not a demix manifest: missing or of the wrong type: files")):
        ExperimentManifest.load(path)


def test_manifest_file_records_of_the_wrong_shape_are_dropped(tmp_path):
    good = {"digest": "0f" * 16, "stamp": [1, 2, 3, 4]}
    files = {
        "good": good,
        "not-an-object": 5,
        "without-digest": {"stamp": [1, 2, 3, 4]},
        "digest-not-a-string": {"digest": 7, "stamp": [1, 2, 3, 4]},
        "stamp-not-a-list": {"digest": "0f", "stamp": "1 2 3 4"},
        "float-in-stamp": {"digest": "0f", "stamp": [1, 2, 3.0, 4]},
        "bool-in-stamp": {"digest": "0f", "stamp": [True, 2, 3, 4]},
        "short-stamp": {"digest": "0f", "stamp": [1, 2, 3]},
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**MANIFEST, "files": files}))
    assert ExperimentManifest.load(path)[0].files == {"good": good}
    path.write_text(json.dumps(MANIFEST))  # as written before files were recorded
    assert ExperimentManifest.load(path)[0].files == {}


@pytest.mark.parametrize("edit", ["drop-files", "bad-digests"])
def test_a_manifest_without_usable_stamps_reruns_nothing_and_hashes_each_input_once(
    config_path, warm_root, monkeypatch, edit
):
    monkeypatch.setattr(pipeline, "RACY_WINDOW_NS", 0)
    (run_dir,) = warm_root.iterdir()
    run_pipeline(load_config(config_path), run_root=warm_root)  # records the stamps
    doc = json.loads((run_dir / "manifest.json").read_text())
    if edit == "drop-files":
        del doc["files"]
    else:
        for record in doc["files"].values():
            record["digest"] = 0
    (run_dir / "manifest.json").write_text(json.dumps(doc))
    hashed = hashed_files(monkeypatch)
    again = run_pipeline(load_config(config_path), run_root=warm_root)
    assert recomputed_stages(again) == []
    assert sorted(hashed) == INPUTS
    assert sorted(again.files) == INPUTS


def test_score_csv_round_trip(tmp_path):
    from demix.merge_engine import MixtureRatio

    rng = np.random.default_rng(0)
    lab = toy_lab.make_domains(2, 8, seed=1)
    config = toy_lab.ComponentTrainingConfig(seed=1, steps=30)
    _, comps = toy_lab.prepare_components(lab.candidates, lab.general, config)
    ratios = [
        MixtureRatio(weights=rng.dirichlet(np.ones(2)), candidate_ids=["dom0", "dom1"])
        for _ in range(3)
    ]
    table = score_table(proxy_scores(comps, lab.tasks, ratios), lab.tasks)
    write_score_csv(table, tmp_path / "scores.csv", tmp_path / "domains.csv")
    loaded = read_score_csv(tmp_path / "scores.csv", tmp_path / "domains.csv")
    assert loaded.rows == table.rows
    assert loaded.domain_of == table.domain_of


def test_consistency_helper_reports_recovery():
    lab = toy_lab.make_domains(3, 13, seed=4)
    config = toy_lab.ComponentTrainingConfig(seed=4, steps=60, base_steps=60)
    base, comps = toy_lab.prepare_components(lab.candidates, lab.general, config)
    from demix.mixture_search import sample_simplex

    ids = [c.id for c in lab.candidates]
    ratios = sample_simplex(3, 10, seed=9, candidate_ids=ids)
    reference = score_table(toy_lab.trained_scores(lab, base, config, ratios), lab.tasks)
    proxy = score_table(proxy_scores(comps, lab.tasks, ratios), lab.tasks)
    report = consistency_report(reference, proxy)
    assert set(report["per_domain_rho"]) == {"dom0", "dom1", "dom2"}
    assert report["mean_capability_recovery"] > 0.5
    assert report["n_models"] == 10


@pytest.mark.parametrize("family", ["linear_regression", "mlp_1hidden"])
def test_batch_proxy_scores_equal_per_ratio_merges_bit_for_bit(family, monkeypatch):
    from demix.merge_engine import MixtureRatio
    from demix.mixture_search import sample_simplex

    lab = toy_lab.make_domains(3, 13, seed=5)
    config = toy_lab.ComponentTrainingConfig(
        seed=5, steps=30, base_steps=30, model_family=family, hidden_units=4
    )
    _, comps = toy_lab.prepare_components(lab.candidates, lab.general, config)
    ids = [c.id for c in lab.candidates]
    special = [[1, 0, 0], [0, 0, 1], [0.4, 0.2, 0.4], [0.3, 0.35, 0.35], [0.5, 0.5, 0.0]]
    ratios = sample_simplex(3, 6, seed=2, candidate_ids=ids)
    ratios += [MixtureRatio(weights=w, candidate_ids=ids) for w in special]

    def reference(ratio):  # the per-ratio formula the batch replaces
        return toy_lab.evaluate_model(merge_engine.merge(comps, ratio).parameters(), lab.tasks)

    expected = [{k: v.hex() for k, v in reference(r).items()} for r in ratios]
    alive = []  # a weak reference to every merged model so far
    parameters = merge_engine.MergePlan.parameters

    def one_at_a_time(plan):
        assert all(ref() is None for ref in alive), "an earlier merged model is still alive"
        merged = parameters(plan)
        alive.append(weakref.ref(merged))
        return merged

    monkeypatch.setattr(merge_engine.MergePlan, "parameters", one_at_a_time)
    got = [{k: v.hex() for k, v in row.items()} for row in proxy_scores(comps, lab.tasks, ratios)]
    assert got == expected
    assert len(alive) == len(ratios)


def test_the_consistency_stage_scores_every_reference_ratio_in_one_call(
    config_path, warm_root, monkeypatch
):
    (run_dir,) = warm_root.iterdir()
    before = {name: (run_dir / name).read_bytes() for name in ("proxy_scores.csv", "consistency.json")}
    lab = toy_lab.load_lab(run_dir / "lab.npz")
    candidate_ids = [c.id for c in lab.candidates]
    components = pipeline.load_components(run_dir, candidate_ids)
    calls = []

    def recording(components, tasks, ratios):
        calls.append(len(ratios))
        return proxy_scores(components, tasks, ratios)

    monkeypatch.setattr(pipeline, "proxy_scores", recording)
    pipeline.check_consistency(load_config(config_path), lab.tasks, candidate_ids, components, run_dir)
    assert calls == [10]
    assert {name: (run_dir / name).read_bytes() for name in before} == before


def test_the_consistency_stage_merges_at_the_ratios_the_references_trained_at(
    config_path, tmp_path, monkeypatch
):
    monkeypatch.setattr(forking, "can_fork", lambda: False)  # so both stages record here
    trained, merged = [], []
    trained_scores = toy_lab.trained_scores

    def training(lab, base, config, ratios):
        trained.append(list(ratios))
        return trained_scores(lab, base, config, ratios)

    def merging(components, tasks, ratios):
        merged.append(list(ratios))
        return proxy_scores(components, tasks, ratios)

    monkeypatch.setattr(toy_lab, "trained_scores", training)
    monkeypatch.setattr(pipeline, "proxy_scores", merging)
    run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    # In one process the consistency stage merges first, then the search's passes.
    (references,), consistency = trained, merged[0]
    assert len(references) == len(consistency) == 10
    for reference, proxy in zip(references, consistency):
        assert np.array_equal(reference.weights, proxy.weights)
        assert reference.candidate_ids == proxy.candidate_ids


def test_a_valid_edit_of_the_reference_ratios_recomputes_no_stage(config_path, warm_root):
    (run_dir,) = warm_root.iterdir()
    path = run_dir / "reference_ratios.json"
    ratios = json.loads(path.read_text())
    path.write_text(json.dumps(ratios[1:] + ratios[:1]))  # the same ratios, rotated by one row
    before = {name: (run_dir / name).read_bytes() for name in PRODUCER}
    again = run_pipeline(load_config(config_path), run_root=warm_root)
    assert recomputed_stages(again) == []
    assert {name: (run_dir / name).read_bytes() for name in PRODUCER} == before
