"""Tests for the pipeline orchestrator: caching, determinism, reports."""

import functools
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import demix
from demix import pipeline, tensor_store, toy_lab
from demix.config import ExperimentConfig, load_config
from demix.errors import PipelineError, ValidationError
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


# The files some stage reads, which a run digests.
INPUTS = sorted(set(PRODUCER) - {"proxy_scores.csv", "transcript.jsonl", "report.json"})


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
    monkeypatch.setattr(tensor_store, "load_archive", forbidden)
    monkeypatch.setattr(pipeline, "load_archive", forbidden)
    assert recomputed_stages(run_pipeline(load_config(config_path), run_root=warm_root)) == []


def test_search_result_counts_the_fits_and_the_evaluator_calls(warm_root):
    (run_dir,) = warm_root.iterdir()
    result = json.loads((run_dir / "search_result.json").read_text())
    assert result["fits"] == [
        {"after_iteration": 0, "n_observations": 8},
        {"after_iteration": 1, "n_observations": 12},
    ]
    assert result["evaluator_calls"] == result["evaluations"] == 12


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


def test_a_new_stage_version_recomputes_that_stage_only(config_path, tmp_path, monkeypatch):
    manifest = run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    result = (Path(manifest.run_dir) / "search_result.json").read_bytes()
    monkeypatch.setitem(pipeline.STAGE_VERSIONS, "search", pipeline.STAGE_VERSIONS["search"] + 1)
    again = run_pipeline(load_config(config_path), run_root=tmp_path / "runs")
    # The report hashes its input files, which the rerun wrote byte for byte.
    assert recomputed_stages(again) == ["search"]
    assert (Path(manifest.run_dir) / "search_result.json").read_bytes() == result


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
        "def search_then_die(config, lab, components, result_path, transcript_path=None):\n"
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
        "def search_then_die(config, lab, components, result_path, transcript_path=None):\n"
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


@pytest.mark.parametrize(
    "name, text",
    [
        ("reference_ratios.json", '[{"dom0": 0.5, "dom1": 0.5}]'),
        ("reference_ratios.json", "not JSON"),
        ("reference_ratios.json", "[1, 2]"),
        ("reference_ratios.json", '[{"dom0": 0.2, "dom1": 0.3, "dom2": 0.5}]'),
        ("search_result.json", '{"evaluations": 12}'),
        ("search_result.json", '{"best_mixture": {'),
        ("search_result.json", json.dumps({
            "best_mixture": [1, 2], "evaluations": 12, "planned_evaluations": 12,
            "final_pool_size": 1500, "final_top_k": 16})),
        ("consistency.json", '{"n_models": 10}'),
        ("consistency.json", "[]"),
    ],
    ids=["ratio-without-an-id", "ratios-not-json", "ratios-not-objects", "one-ratio-for-ten",
         "result-without-best-mixture", "result-not-json", "best-mixture-not-an-object",
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
    table = score_table(functools.partial(proxy_scores, comps, lab.tasks), ratios, lab)
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
    reference = score_table(functools.partial(toy_lab.trained_scores, lab, base, config), ratios, lab)
    proxy = score_table(functools.partial(proxy_scores, comps, lab.tasks), ratios, lab)
    report = consistency_report(reference, proxy)
    assert set(report["per_domain_rho"]) == {"dom0", "dom1", "dom2"}
    assert report["mean_capability_recovery"] > 0.5
    assert report["n_models"] == 10
