"""End-to-end tests of the demix command line."""

import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import demix
from demix import merge_engine, tensor_store
from demix.cli import main
from demix.config import load_config
from demix.tensor_store import ParameterSet, load_archive, read_header, save_archive
from demix.toy_lab import (
    ComponentTrainingConfig,
    load_lab,
    make_domains,
    prepare_components,
    save_lab,
)


@pytest.fixture()
def archives(tmp_path):
    rng = np.random.default_rng(0)
    paths = []
    for i in range(3):
        p = ParameterSet.from_arrays({"w": rng.standard_normal(6), "b": rng.standard_normal(1)})
        path = tmp_path / f"comp{i}.dmxt"
        save_archive(p, path)
        paths.append(path)
    return paths


def test_tensor_inspect_checksum_diff(tmp_path, archives, capsys):
    assert main(["tensor", "inspect", str(archives[0]), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {t["name"] for t in doc["tensors"]} == {"w", "b"}

    assert main(["tensor", "checksum", str(archives[0])]) == 0
    checksum = capsys.readouterr().out.strip()
    assert checksum == load_archive(archives[0]).checksum()

    assert main(["tensor", "diff", str(archives[0]), str(archives[0])]) == 0
    assert main(["tensor", "diff", str(archives[0]), str(archives[1])]) == 1


def test_tensor_errors_use_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.dmxt"
    assert main(["tensor", "inspect", str(missing)]) == 3
    assert "error" in capsys.readouterr().err


def test_tensor_diff_without_the_second_archive_is_a_usage_error(archives, capsys):
    assert main(["tensor", "diff", str(archives[0])]) == 2
    assert "requires a second archive" in capsys.readouterr().err


@pytest.mark.parametrize("atol", ["nan", "-1"])
def test_tensor_diff_with_a_nan_or_negative_atol_is_a_usage_error(archives, capsys, atol):
    same = [str(archives[0]), str(archives[0])]
    assert main(["tensor", "diff", *same, "--atol", "inf"]) == 0
    assert main(["tensor", "diff", *same, "--atol", atol]) == 2
    assert "--atol must be non-negative" in capsys.readouterr().err


def test_merge_cli_linear(tmp_path, archives, capsys):
    out = tmp_path / "merged.dmxt"
    code = main(
        [
            "merge",
            "--method",
            "linear",
            "--ratio",
            "0.5,0.3,0.2",
            "--components",
            ",".join(str(p) for p in archives),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    merged = load_archive(out)
    comps = [load_archive(p) for p in archives]
    expected = sum(w * c.entries["w"] for w, c in zip([0.5, 0.3, 0.2], comps))
    assert np.allclose(merged.entries["w"], expected, atol=1e-12)


def test_merge_cli_writes_the_library_merge_with_its_method_and_ratio(tmp_path, archives, capsys):
    out = tmp_path / "merged.dmxt"
    components = ",".join(str(p) for p in archives)
    assert main(["merge", "--ratio", "0.2,0.5,0.3", "--components", components, "--out", str(out)]) == 0
    assert read_header(out).metadata == {"model_id": "merged", "method": "linear", "ratio": "0.2,0.5,0.3"}
    ratio = merge_engine.MixtureRatio(weights=[0.2, 0.5, 0.3], candidate_ids=[p.stem for p in archives])
    expected = merge_engine.merge([load_archive(p) for p in archives], ratio)
    merged = load_archive(out)
    for name in expected.names():
        assert np.array_equal(merged.entries[name], expected.entries[name])


def test_merge_cli_merges_archives_of_the_same_name_from_different_directories(
    tmp_path, archives, capsys
):
    same = []
    for i, path in enumerate(archives):
        (tmp_path / f"d{i}").mkdir()
        same.append(Path(shutil.copy(path, tmp_path / f"d{i}" / "c.dmxt")))
    out = tmp_path / "merged.dmxt"
    components = ",".join(map(str, same))
    assert main(["merge", "--ratio", "0.2,0.5,0.3", "--components", components, "--out", str(out)]) == 0
    merged = load_archive(out)
    for name in merged.names():
        expected = sum(w * load_archive(p).entries[name] for w, p in zip([0.2, 0.5, 0.3], archives))
        assert np.allclose(merged.entries[name], expected, rtol=0, atol=1e-12)


def test_merge_cli_requires_valid_ratio(tmp_path, archives, capsys):
    code = main(
        [
            "merge",
            "--ratio",
            "0.9,0.9,0.9",
            "--components",
            ",".join(str(p) for p in archives),
            "--out",
            str(tmp_path / "x.dmxt"),
        ]
    )
    assert code == 2


def test_merge_cli_names_the_archive_whose_header_is_bad(tmp_path, archives, capsys):
    archives[1].write_bytes(b"XXXX" + archives[1].read_bytes()[4:])
    out = tmp_path / "merged.dmxt"
    components = ",".join(str(p) for p in archives)
    assert main(["merge", "--ratio", "0.2,0.5,0.3", "--components", components, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: invalid archive {archives[1]}: corrupt header: bad magic b'XXXX'\n"
    assert not out.exists()


def test_merge_cli_that_overflows_is_a_non_finite_error_and_writes_nothing(tmp_path, capsys):
    # Finite values whose differences overflow float64.
    values = [np.array([1e308, -1e308, 1.0]), np.array([-1e308, 1e308, 2.0]), np.array([1e308, 0.0, 3.0])]
    paths = []
    for i, w in enumerate(values):
        paths.append(tmp_path / f"big{i}.dmxt")
        save_archive(ParameterSet.from_arrays({"w": w}), paths[-1])
    out = tmp_path / "merged.dmxt"
    components = ",".join(str(p) for p in paths)
    assert main(["merge", "--ratio", "0.4,0.3,0.3", "--components", components, "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()
    assert list(tmp_path.glob("*.tmp")) == []


def test_dedup_cli(tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    lines = [
        {"id": "a", "text": "alpha beta gamma delta"},
        {"id": "b", "text": "alpha beta gamma delta"},
        {"id": "c", "text": "something entirely different here"},
    ]
    docs.write_text("\n".join(json.dumps(d) for d in lines) + "\n")
    report = tmp_path / "report.json"
    kept = tmp_path / "kept.jsonl"
    code = main(
        ["dedup", "--in", str(docs), "--mode", "both", "--seed", "1",
         "--report", str(report), "--out", str(kept)]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["counts"] == {"kept": 2, "removed": 1, "clusters": 1}
    assert [json.loads(l)["id"] for l in kept.read_text().splitlines()] == ["a", "c"]


@pytest.mark.parametrize("mode", ["exact", "fuzzy", "both"])
def test_dedup_with_ngram_below_one_is_a_usage_error(tmp_path, capsys, mode):
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"id": "a", "text": "alpha beta gamma"}\n{"id": "b", "text": "..."}\n')
    report = tmp_path / "report.json"
    argv = ["dedup", "--in", str(docs), "--mode", mode, "--ngram", "0", "--report", str(report)]
    assert main(argv) == 2
    assert "ngram" in capsys.readouterr().err
    assert not report.exists()


def test_dedup_with_a_negative_seed_is_a_usage_error(tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"id": "a", "text": "alpha beta gamma"}\n{"id": "b", "text": "..."}\n')
    report = tmp_path / "report.json"
    argv = ["dedup", "--in", str(docs), "--seed", "-1", "--report", str(report)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "seed must be non-negative" in err and "Traceback" not in err
    assert not report.exists()


class _FailsPartWay:
    """A binary file that takes its first ``budget`` bytes, then fails as a
    full disk would."""

    def __init__(self, fh, budget):
        self._fh, self._left = fh, budget

    def write(self, data):
        data = memoryview(data).cast("B")
        if data.nbytes > self._left:
            self._fh.write(data[: self._left])
            self._left = 0
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self._left -= data.nbytes
        return self._fh.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.mark.parametrize("command", ["dedup", "merge", "lab-gen", "eval", "search"])
def test_an_output_write_that_fails_part_way_leaves_the_old_file_and_no_temp_file(
    tmp_path, archives, capsys, monkeypatch, command
):
    docs = tmp_path / "docs.jsonl"
    docs.write_text("".join(json.dumps({"id": f"d{i}", "text": f"words of doc {i}"}) + "\n"
                            for i in range(20)))
    scores = tmp_path / "scores.csv"
    scores.write_text("model_id,benchmark_id,score\n"
                      + "".join(f"m{i},b0,{i + 1}.0\nm{i},b1,{3 * i % 4 + 1}.0\n" for i in range(4)))
    (tmp_path / "domains.csv").write_text("benchmark_id,domain\nb0,d0\nb1,d1\n")
    if command == "search":
        lab = make_domains(2, 8, seed=3)
        save_lab(lab, tmp_path / "lab.npz")
        _, comps = prepare_components(lab.candidates, lab.general, ComponentTrainingConfig(steps=5))
        for cand, comp in zip(lab.candidates, comps):
            save_archive(comp, tmp_path / f"component_{cand.id}.dmxt")
        (tmp_path / "exp.cfg").write_text("[search]\nplan = 4,2\npool = 50\ntop_k = 4\n")
    out = tmp_path / "out" / "result"
    out.parent.mkdir()
    out.write_bytes(b"old contents\n")
    argv = {
        "dedup": ["dedup", "--in", str(docs), "--report", str(tmp_path / "r.json"), "--out", str(out)],
        "merge": ["merge", "--ratio", "0.2,0.3,0.5", "--out", str(out),
                  "--components", ",".join(str(p) for p in archives)],
        "lab-gen": ["lab", "gen", "--out", str(out)],
        "eval": ["eval", "--reference", str(scores), "--proxy", str(scores),
                 "--domains", str(tmp_path / "domains.csv"), "--out", str(out)],
        "search": ["search", "--config", str(tmp_path / "exp.cfg"), "--components", str(tmp_path),
                   "--benchmarks", str(tmp_path / "lab.npz"), "--out", str(out)],
    }[command]

    def opener(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return _FailsPartWay(fh, 64) if Path(path).name.startswith(out.name) else fh

    monkeypatch.setattr(tensor_store, "open", opener, raising=False)
    assert main(argv) == 3
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_bytes() == b"old contents\n"
    assert [p.name for p in out.parent.iterdir()] == ["result"]
    monkeypatch.undo()
    assert main(argv) == 0 and out.read_bytes() != b"old contents\n"
    assert [p.name for p in out.parent.iterdir()] == ["result"]


@pytest.mark.parametrize(
    "bad_line, problem",
    [
        (b"not json", "not JSON"),
        (b'{"id": "b"}', 'expected an object with string "id"'),
        (b'{"id": "b", "text": "caf\xe9"}', "not UTF-8 text"),
        (b'["b", "text"]', 'expected an object with string "id"'),
        (b'{"id": "b", "text": "x \\ud800 y"}', "text escapes a lone surrogate"),
    ],
    ids=["not-json", "no-text", "not-utf8", "array", "lone-surrogate"],
)
def test_malformed_corpus_is_a_usage_error(tmp_path, capsys, bad_line, problem):
    docs = tmp_path / "docs.jsonl"
    docs.write_bytes(b'{"id": "a", "text": "alpha"}\n' + bad_line + b"\n")
    report = tmp_path / "report.json"
    assert main(["dedup", "--in", str(docs), "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert f"{docs}:2: {problem}" in err
    assert not report.exists()


def test_lab_and_search_cli_flow(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[experiment]\nseed = 2\n\n"
        "[training]\nsteps = 40\nbase_steps = 40\n\n[references]\ncount = 4\n\n"
        "[search]\nplan = 6,3\npool = 800\ntop_k = 8\n"
    )
    lab_path = tmp_path / "lab.npz"
    assert main(["lab", "gen", "--config", str(cfg), "--out", str(lab_path)]) == 0
    comp_dir = tmp_path / "components"
    assert main(
        ["lab", "train-components", "--config", str(cfg), "--lab", str(lab_path),
         "--out-dir", str(comp_dir)]
    ) == 0
    assert (comp_dir / "base.dmxt").exists()

    ref_dir = tmp_path / "refs"
    assert main(
        ["lab", "train-references", "--config", str(cfg), "--lab", str(lab_path),
         "--base", str(comp_dir / "base.dmxt"), "--out-dir", str(ref_dir)]
    ) == 0
    assert (ref_dir / "references.csv").exists()

    capsys.readouterr()
    assert main(
        ["lab", "evaluate", "--lab", str(lab_path), "--model", str(comp_dir / "base.dmxt")]
    ) == 0
    row = json.loads(capsys.readouterr().out)
    assert all(0.0 <= v <= 100.0 for v in row.values())

    (comp_dir / "base.dmxt").unlink()  # the search merges components only
    out = tmp_path / "result.json"
    transcript = tmp_path / "transcript.jsonl"
    code = main(
        ["search", "--config", str(cfg), "--components", str(comp_dir),
         "--benchmarks", str(lab_path), "--out", str(out), "--transcript", str(transcript)]
    )
    assert code == 0
    result = json.loads(out.read_text())
    assert result["evaluations"] == 9
    assert sum(result["best_mixture"].values()) == pytest.approx(1.0, abs=1e-9)
    assert len(transcript.read_text().splitlines()) == 9


def test_eval_cli(tmp_path, capsys):
    lab = make_domains(2, 8, seed=3)
    config = ComponentTrainingConfig(seed=3, steps=30)
    base, comps = prepare_components(lab.candidates, lab.general, config)
    from demix.mixture_search import sample_simplex
    from demix.pipeline import proxy_scores, score_table, write_score_csv
    from demix.toy_lab import trained_scores

    ids = [c.id for c in lab.candidates]
    ratios = sample_simplex(2, 8, seed=4, candidate_ids=ids)
    reference = score_table(trained_scores(lab, base, config, ratios), lab)
    proxy = score_table([proxy_scores(comps, lab.tasks, ratio) for ratio in ratios], lab)
    write_score_csv(reference, tmp_path / "ref.csv", tmp_path / "domains.csv")
    write_score_csv(proxy, tmp_path / "proxy.csv")
    out = tmp_path / "consistency.json"
    code = main(
        ["eval", "--reference", str(tmp_path / "ref.csv"), "--proxy", str(tmp_path / "proxy.csv"),
         "--domains", str(tmp_path / "domains.csv"), "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc["per_domain_rho"]) == {"dom0", "dom1"}


def test_eval_cli_rejects_repeated_rows(tmp_path, capsys):
    ref, domains = tmp_path / "ref.csv", tmp_path / "domains.csv"
    argv = ["eval", "--reference", str(ref), "--proxy", str(ref), "--domains", str(domains),
            "--out", str(tmp_path / "c.json")]
    rows = "".join(f"m{i},x,{i}.0\nm{i},y,{i % 3}.0\n" for i in range(4))
    ref.write_text("model_id,benchmark_id,score\n" + rows + "m0,x,9.0\n")
    domains.write_text("benchmark_id,domain\nx,d1\ny,d2\n")
    assert main(argv) == 2
    assert f"{ref}:10: repeated model_id,benchmark_id 'm0,x', first on line 2" in capsys.readouterr().err
    ref.write_text("model_id,benchmark_id,score\n" + rows)
    domains.write_text("benchmark_id,domain\nx,d1\ny,d2\nx,d2\n")
    assert main(argv) == 2
    assert f"{domains}:4: repeated benchmark_id 'x', first on line 2" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


def test_run_and_report_cli(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[experiment]\nseed = 1\n\n"
        "[training]\nsteps = 40\nbase_steps = 40\n\n"
        "[references]\ncount = 8\n\n"
        "[search]\nplan = 6,3\npool = 800\ntop_k = 8\ngbdt_rounds = 40\n"
    )
    stages = ["lab", "components", "references", "consistency", "search", "report"]
    for flag in ("ran", "cached"):
        assert main(["run", "--config", str(cfg), "--run-root", str(tmp_path / "runs")]) == 0
        lines = capsys.readouterr().out.splitlines()
        # In run order; the cached rerun reads its manifest back from JSON
        # with sorted keys.
        assert lines[1:7] == [f"  {stage}: done ({flag})" for stage in stages]
        assert lines[7] == "experiment experiment (seed 1)" and "optimal mixture:" in lines
    run_dir = next((tmp_path / "runs").iterdir())
    assert main(["report", "--manifest", str(run_dir / "manifest.json"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["proxy_budget"]["used"] == 9


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[search]\nbananas = 4\n")
    assert main(["run", "--config", str(cfg)]) == 2
    cfg.write_text("[serach]\nplan = 4\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "unknown section [serach]" in capsys.readouterr().err
    cfg.write_text("[references]\nenabled = true\n")  # every run trains the references
    assert main(["run", "--config", str(cfg)]) == 2
    assert "unknown key 'enabled' in [references]" in capsys.readouterr().err


def test_removed_merge_keys_and_options_are_usage_errors(tmp_path, archives, capsys):
    cfg = tmp_path / "exp.cfg"
    removed = [("search", "merge_method", "ties"), ("search", "merge_seed", "1")]
    # Lab sizes and the predictor's tree shape are constants, not settings.
    removed += [("lab", key, "4") for key in ("shared_dims", "examples_per_domain",
                                              "general_examples", "benchmark_examples")]
    removed += [("search", key, "2") for key in ("gbdt_learning_rate", "gbdt_max_depth",
                                                 "gbdt_min_samples_leaf")]
    for section, key, value in removed:
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        assert main(["run", "--config", str(cfg), "--run-root", str(tmp_path / "runs")]) == 2
        assert f"unknown key {key!r} in [{section}]" in capsys.readouterr().err
    cfg.write_text("[lab]\nfamily = logistic\n")
    assert main(["run", "--config", str(cfg), "--run-root", str(tmp_path / "runs")]) == 2
    assert "unknown model family 'logistic'" in capsys.readouterr().err
    merge = ["merge", "--ratio", "0.5,0.3,0.2", "--components", ",".join(map(str, archives)),
             "--out", str(tmp_path / "x.dmxt")]
    for extra in (["--method", "ties"], ["--base", str(archives[0])], ["--seed", "1"],
                  ["--hyperparam", "density=0.5"]):
        with pytest.raises(SystemExit) as exc:
            main(merge + extra)
        assert exc.value.code == 2, extra
    assert not (tmp_path / "x.dmxt").exists()
    assert not (tmp_path / "runs").exists()


def test_full_batch_training_is_a_usage_error(tmp_path, capsys):
    # Training is mini-batch only; the key keeps false as its one legal value.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[training]\nfull_batch = true\n")
    assert main(["run", "--config", str(cfg), "--run-root", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "full_batch" in err and "Traceback" not in err
    assert not (tmp_path / "runs").exists()
    cfg.write_text("[training]\nfull_batch = false\n")
    assert load_config(cfg).training_config().full_batch is False


SMALL_CONFIG = (
    "[experiment]\nseed = 1\n\n"
    "[training]\nsteps = 40\nbase_steps = 40\n\n"
    "[references]\ncount = 6\n\n"
    "[search]\nplan = 6,3\npool = 800\ntop_k = 8\ngbdt_rounds = 40\n"
)


@pytest.mark.parametrize("n_domains", [3, 11])  # from 11 on, dom10 sorts before dom2
def test_stage_commands_write_the_same_artifacts_as_run(tmp_path, capsys, n_domains):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[lab]\nn_domains = {n_domains}\n" + SMALL_CONFIG)
    out = tmp_path / "stages"
    lab = str(out / "lab.npz")
    out.mkdir()
    assert main(["lab", "gen", "--config", str(cfg), "--out", lab]) == 0
    assert main(["lab", "train-components", "--config", str(cfg), "--lab", lab,
                 "--out-dir", str(out)]) == 0
    assert main(["lab", "train-references", "--config", str(cfg), "--lab", lab,
                 "--base", str(out / "base.dmxt"), "--out-dir", str(out)]) == 0
    assert main(["search", "--config", str(cfg), "--components", str(out), "--benchmarks", lab,
                 "--out", str(out / "search_result.json"),
                 "--transcript", str(out / "transcript.jsonl")]) == 0
    assert main(["run", "--config", str(cfg), "--run-root", str(tmp_path / "runs")]) == 0
    run_dir = next((tmp_path / "runs").iterdir())
    names = ["lab.npz", "base.dmxt", "reference_ratios.json", "references.csv", "domains.csv",
             "search_result.json", "transcript.jsonl"]
    names += sorted(p.name for p in out.glob("component_*.dmxt"))
    assert len(names) == 7 + n_domains
    for name in names:
        assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_report_reads_the_run_directory_its_manifest_is_in(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CONFIG)
    assert main(["run", "--config", str(cfg), "--run-root", str(tmp_path / "runs")]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    moved = run_dir.rename(tmp_path / "moved")  # the original directory is gone
    capsys.readouterr()
    assert main(["report", "--manifest", str(moved / "manifest.json"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads((moved / "report.json").read_text())


def test_report_shows_the_name_of_the_config_that_ran(tmp_path, capsys):
    runs = str(tmp_path / "runs")
    for name in ("alpha", "beta"):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"[experiment]\nname = {name}\n" + SMALL_CONFIG.split("\n", 1)[1])
        assert main(["run", "--config", str(cfg), "--run-root", runs]) == 0
        assert f"experiment {name} (seed 1)" in capsys.readouterr().out
    (run_dir,) = (tmp_path / "runs").iterdir()
    assert json.loads((run_dir / "report.json").read_text())["experiment"]["name"] == "beta"


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_is_not_an_archive_error(tmp_path, capsys, unbuffered):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CONFIG)
    argv = ["run", "--config", str(cfg), "--run-root", str(tmp_path / "runs")]
    assert main(argv) == 0
    src = str(Path(demix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen([sys.executable, "-m", "demix.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader goes away before the first line
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "error:" not in err and "BrokenPipeError" not in err


def test_malformed_inputs_are_usage_errors(tmp_path, archives, capsys):
    comps = ",".join(str(p) for p in archives)
    assert main(["merge", "--ratio", "0.5,abc", "--components", comps,
                 "--out", str(tmp_path / "x.dmxt")]) == 2
    cfg = tmp_path / "exp.cfg"
    for body, key in [("[search]\nplan = 4,x\n", "plan"), ("[search]\npool = 1e5\n", "pool"),
                      ("[experiment]\nseed = -1\n", "seed"),
                      # The lab's streams keep the low 64 bits: this would be seed 0's lab.
                      ("[experiment]\nseed = 18446744073709551616\n", "seed"),
                      ("[search]\nplan = 1\n", "plan"),
                      ("[search]\nplan = 1,8\n", "plan"),
                      ("[search]\ngbdt_rounds = 0\n", "gbdt_rounds"),
                      ("[search]\nplan = 8,50\npool = 20\ntop_k = 4\n", "plan"),
                      ("[lab]\nfamily = mlp_1hidden\nhidden_units = -1\n", "hidden_units"),
                      ("[lab]\nfeature_dim = 3\n", "feature_dim"),
                      ("[training]\nstep_size = nan\n", "step_size"),
                      ("[training]\nstep_size = inf\n", "step_size"),
                      ("[training]\nbase_steps = -1\n", "base_steps")]:
        cfg.write_text(body)
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--run-root", str(tmp_path / "runs")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()  # rejected before any stage ran
    cfg.write_bytes(b"[experiment]\nname = \xff\n")
    assert main(["run", "--config", str(cfg)]) == 2
    (tmp_path / "scores.csv").write_bytes(b"model_id,benchmark_id,score\nm0,b0,\xff\n")
    assert main(["eval", "--reference", str(tmp_path / "scores.csv"),
                 "--proxy", str(tmp_path / "scores.csv"), "--domains", str(tmp_path / "scores.csv"),
                 "--out", str(tmp_path / "c.json")]) == 2
    (tmp_path / "scores.csv").write_text("model_id,benchmark_id,score\nm0,b0\n")
    (tmp_path / "domains.csv").write_text("benchmark_id,domain\nb0,d0\n")
    assert main(["eval", "--reference", str(tmp_path / "scores.csv"),
                 "--proxy", str(tmp_path / "scores.csv"), "--domains", str(tmp_path / "domains.csv"),
                 "--out", str(tmp_path / "c.json")]) == 2
    assert f"{tmp_path / 'scores.csv'}:2:" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["pool = 800", "count = 6"])  # [search], [references]
def test_a_draw_too_large_to_hold_is_a_usage_error(tmp_path, capsys, setting):
    # 10**15 rows are far beyond the address space, so numpy refuses the
    # draw without allocating anything.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CONFIG.replace(setting, f"{setting.split()[0]} = {10**15}"))
    assert main(["run", "--config", str(cfg), "--run-root", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert f"{10**15} draws over 3 candidates" in err and "Traceback" not in err


HUGE = 2**62


@pytest.mark.parametrize(
    "setting, sized, message",
    [
        ("pool = 800", f"pool = {HUGE}", f"{HUGE} draws over 3 candidates"),
        ("plan = 6,3", f"plan = {HUGE}", f"{HUGE} draws over 3 candidates"),
        ("count = 6", f"count = {HUGE}", f"{HUGE} draws over 3 candidates"),
        ("[experiment]", f"[lab]\nfamily = mlp_1hidden\nhidden_units = {HUGE}\n\n[experiment]",
         f"hidden_units = {HUGE}"),
        ("base_steps = 40", f"base_steps = 40\nbatch_size = {HUGE}", f"batch_size = {HUGE}"),
        ("[experiment]", f"[lab]\nfeature_dim = {HUGE}\n\n[experiment]", f"feature_dim = {HUGE}"),
        ("[experiment]", f"[lab]\nn_domains = {HUGE}\n\n[experiment]", f"n_domains = {HUGE}"),
    ],
    ids=["pool", "plan", "references-count", "hidden-units", "batch-size", "feature-dim",
         "n-domains"],
)
def test_a_size_numpy_cannot_address_is_a_usage_error(tmp_path, capsys, setting, sized, message):
    # numpy refuses arrays of 2**62 rows before allocating anything; the lab,
    # model and batch sizes are refused by load_config, before any stage runs.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CONFIG.replace(setting, sized))
    assert main(["run", "--config", str(cfg), "--run-root", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err


def test_a_size_memory_cannot_hold_is_an_error_not_a_traceback(tmp_path, capsys):
    # numpy can address 2**50 hidden units, but it refuses the 104 PiB that
    # the initial model's first layer needs before touching any memory.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[lab]\nfamily = mlp_1hidden\nhidden_units = {2**50}\n\n" + SMALL_CONFIG)
    assert main(["run", "--config", str(cfg), "--run-root", str(tmp_path / "runs")]) == 8
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory:") and "Traceback" not in err
    (manifest,) = (tmp_path / "runs").glob("*/manifest.json")
    stages = json.loads(manifest.read_text())["stages"]
    assert stages["lab"]["status"] == "done" and stages["components"]["status"] == "failed"


def test_a_lab_larger_than_memory_exits_8_before_any_run_directory(tmp_path):
    # 2**40 domains pass the address check. Under an address-space limit set
    # on the child alone, a lab built anyway fails there, not on the host.
    import resource

    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[lab]\nn_domains = {2**40}\n\n" + SMALL_CONFIG)
    limit = 2 * 2**30
    src = str(Path(demix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "demix.cli", "run", "--config", str(cfg),
         "--run-root", str(tmp_path / "runs")],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 8
    assert proc.stderr.startswith("error: out of memory:")
    assert f"n_domains = {2**40}" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "action, given, missing",
    [
        ("gen", [], "--out"),
        ("train-components", ["--out-dir"], "--lab"),
        ("train-components", ["--lab"], "--out-dir"),
        ("train-references", ["--lab", "--out-dir"], "--base"),
        ("evaluate", ["--lab"], "--model"),
    ],
    ids=["gen", "components-lab", "components-out-dir", "references", "evaluate"],
)
def test_lab_action_without_its_option_is_a_usage_error(tmp_path, capsys, action, given, missing):
    lab = tmp_path / "lab.npz"
    save_lab(make_domains(2, 8, seed=0), lab)
    values = {"--lab": str(lab), "--out-dir": str(tmp_path / "out")}
    argv = ["lab", action] + [item for option in given for item in (option, values[option])]
    assert main(argv) == 2
    assert f"requires {missing}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_malformed_lab_files_are_usage_errors_naming_the_path(tmp_path, archives, capsys):
    not_npz = tmp_path / "not_npz"
    not_npz.write_text("no lab here\n")
    no_meta = tmp_path / "no_meta.npz"
    with open(no_meta, "wb") as fh:
        np.savez(fh, general_X=np.zeros((2, 2)))
    for lab in (not_npz, no_meta, tmp_path / "missing.npz"):
        for argv in (["lab", "evaluate", "--lab", str(lab), "--model", str(archives[0])],
                     ["search", "--components", str(tmp_path), "--benchmarks", str(lab),
                      "--out", str(tmp_path / "result.json")]):
            assert main(argv) == 2, argv
            assert str(lab) in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


@pytest.mark.parametrize(
    "base, problem",
    [
        ({"w1": np.zeros((13, 4)), "b1": np.zeros(4), "w2": np.zeros(4), "b2": np.zeros(1)},
         "the initial model is mlp_1hidden, but the config trains linear_regression"),
        ({"w": np.zeros(8), "b": np.zeros(1)}, "do not fit 13-dim inputs"),
    ],
    ids=["other-family", "other-input-dim"],
)
def test_a_base_of_the_wrong_schema_is_a_usage_error(tmp_path, capsys, base, problem):
    lab = tmp_path / "lab.npz"
    assert main(["lab", "gen", "--out", str(lab)]) == 0
    save_archive(ParameterSet.from_arrays(base), tmp_path / "base.dmxt")
    capsys.readouterr()
    assert main(["lab", "train-references", "--lab", str(lab), "--base",
                 str(tmp_path / "base.dmxt"), "--out-dir", str(tmp_path / "refs")]) == 2
    assert problem in capsys.readouterr().err


def test_lab_gen_writes_the_path_it_is_given(tmp_path, capsys):
    out = tmp_path / "labx"
    assert main(["lab", "gen", "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["labx"]
    assert len(load_lab(out).candidates) == 3


WELL_TYPED = {"config": {}, "config_hash": "h", "run_dir": ".", "stages": {}}


@pytest.mark.parametrize(
    "text",
    ['{"config": {}', '{"config": {}}', "[]"]
    + [json.dumps({**WELL_TYPED, key: value}) for key, value in [
        ("stages", 5), ("stages", {"report": "done"}), ("config", []),
        ("config_hash", 7), ("run_dir", None),
        ("stages", {"lab": {}}), ("stages", {"lab": {"status": 1}}),
        ("stages", {"lab": {"status": "done", "hash": 5}})]],
)
def test_malformed_manifest_is_a_pipeline_error(tmp_path, capsys, text):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    assert main(["report", "--manifest", str(manifest)]) == 7
    err = capsys.readouterr().err
    assert "not a demix manifest" in err
    if '"lab"' in text:
        assert "stages.lab." in err


def test_run_on_an_edited_manifest_without_stage_status_is_a_pipeline_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CONFIG)
    argv = ["run", "--config", str(cfg), "--run-root", str(tmp_path / "runs")]
    assert main(argv) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    doc = json.loads((run_dir / "manifest.json").read_text())
    doc["stages"]["lab"] = {}
    (run_dir / "manifest.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(argv) == 7
    assert "stages.lab.status" in capsys.readouterr().err


def test_missing_input_files_have_the_exit_code_of_their_input(tmp_path, capsys):
    missing = tmp_path / "missing"
    (tmp_path / "domains.csv").write_text("benchmark_id,domain\nb0,d0\n")
    for argv, code in [
        (["report", "--manifest", str(missing)], 7),
        (["dedup", "--in", str(missing), "--report", str(tmp_path / "r.json")], 2),
        (["eval", "--reference", str(missing), "--proxy", str(missing),
          "--domains", str(tmp_path / "domains.csv"), "--out", str(tmp_path / "c.json")], 2),
    ]:
        assert main(argv) == code, argv
        assert str(missing) in capsys.readouterr().err


WELL_TYPED_REPORT = {
    "experiment": {"name": "e", "seed": 0},
    "optimal_mixture": {"dom0": 0.5, "dom1": 0.5},
    "proxy_budget": {"used": 9, "planned": 9},
    "consistency": {"n_models": 8, "macro_avg_rho": 0.5, "mean_capability_recovery": 0.9,
                    "per_domain_rho": {"dom0": 0.5, "dom1": 0.5}},
}


@pytest.mark.parametrize(
    "report_text, problem",
    [(None, "is missing"), ("{", "is not JSON"), ("[]", "the whole document"),
     (json.dumps({**WELL_TYPED_REPORT, "optimal_mixture": [1, 2]}), "optimal_mixture"),
     (json.dumps({**WELL_TYPED_REPORT, "consistency": None}), "consistency"),
     (json.dumps({k: v for k, v in WELL_TYPED_REPORT.items() if k != "consistency"}),
      "consistency")],
    ids=["missing", "not-json", "not-an-object", "mixture-not-an-object",
         "consistency-not-an-object", "without-consistency"],
)
def test_unreadable_report_is_a_pipeline_error(tmp_path, capsys, report_text, problem):
    manifest = tmp_path / "manifest.json"
    stages = {"report": {"status": "done", "outputs": {"report": "report.json"}}}
    manifest.write_text(json.dumps({**WELL_TYPED, "run_dir": str(tmp_path), "stages": stages}))
    if report_text is not None:
        (tmp_path / "report.json").write_text(report_text)
    assert main(["report", "--manifest", str(manifest)]) == 7
    err = capsys.readouterr().err
    assert problem in err and str(tmp_path / "report.json") in err
    (tmp_path / "report.json").write_text(json.dumps(WELL_TYPED_REPORT))
    assert main(["report", "--manifest", str(manifest)]) == 0
