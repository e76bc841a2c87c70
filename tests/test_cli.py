"""End-to-end tests of the demix command line, and direct tests of the input
checks of the stage functions that `demix run` calls."""

import errno
import json
import mmap
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import needs_fork

import demix
from demix import merge_engine, pipeline, tensor_store
from demix.cli import main
from demix.config import ExperimentConfig, load_config
from demix.errors import PipelineError, SchemaMismatchError, ValidationError
from demix.mixture_search import SamplePlan
from demix.pipeline import ExperimentManifest, read_score_csv
from demix.tensor_store import ParameterSet, load_archive, save_archive
from demix.toy_lab import (
    ComponentTrainingConfig,
    load_lab,
    make_domains,
    prepare_components,
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


def test_tensor_errors_use_exit_codes(tmp_path, archives, capsys):
    missing = tmp_path / "nope.dmxt"
    components = ",".join(map(str, [archives[0], missing, archives[2]]))
    out = tmp_path / "merged.dmxt"
    assert main(["merge", "--ratio", "0.2,0.5,0.3", "--components", components, "--out", str(out)]) == 3
    assert f"error: cannot read archive {missing}" in capsys.readouterr().err
    assert not out.exists()


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
    # The header as the archive layout defines it: magic, version, u64 length, JSON.
    blob = out.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    doc, json_end = json.JSONDecoder().raw_decode(blob[16 : 16 + header_len].decode("utf-8"))
    assert doc["metadata"] == {"model_id": "merged", "method": "linear", "ratio": "0.2,0.5,0.3"}
    # Spaces pad the JSON so that the payload starts on a 64-byte boundary.
    assert (16 + header_len) % 64 == 0
    assert set(blob[16 + json_end : 16 + header_len]) <= set(b" ")
    ratio = merge_engine.MixtureRatio(weights=[0.2, 0.5, 0.3], candidate_ids=[p.stem for p in archives])
    expected = merge_engine.merge([load_archive(p) for p in archives], ratio).parameters()
    merged = load_archive(out)
    for entry in doc["tensors"]:
        assert (merged.entries[entry["name"]].ctypes.data - entry["offset"]) % 64 == 0
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


def test_merge_cli_may_write_over_one_of_its_components(tmp_path, archives, capsys):
    components = ",".join(str(p) for p in archives)
    elsewhere = tmp_path / "merged.dmxt"
    assert main(["merge", "--ratio", "0.2,0.5,0.3", "--components", components, "--out", str(elsewhere)]) == 0
    assert main(["merge", "--ratio", "0.2,0.5,0.3", "--components", components, "--out", str(archives[1])]) == 0
    assert archives[1].read_bytes() == elsewhere.read_bytes()


def test_merge_cli_whose_archive_cannot_be_mapped_exits_3_and_writes_nothing(
    tmp_path, archives, capsys, monkeypatch
):
    def fails(*args, **kwargs):
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(mmap, "mmap", fails)
    out = tmp_path / "merged.dmxt"
    components = ",".join(str(p) for p in archives)
    assert main(["merge", "--ratio", "0.2,0.5,0.3", "--components", components, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read archive {archives[0]}: ") and "Traceback" not in err
    assert not out.exists()
    assert list(tmp_path.glob("*.tmp")) == []


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
    good = archives[1].read_bytes()
    archives[1].write_bytes(b"XXXX" + good[4:])
    out = tmp_path / "merged.dmxt"
    components = ",".join(str(p) for p in archives)
    assert main(["merge", "--ratio", "0.2,0.5,0.3", "--components", components, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: invalid archive {archives[1]}: corrupt header: bad magic b'XXXX'\n"
    assert not out.exists()
    # A NUL in the header's padding of spaces: JSON allows only whitespace there.
    start = 16 + struct.unpack_from("<Q", good, 8)[0]
    assert good[start - 1 : start] == b" "
    archives[1].write_bytes(good[: start - 1] + b"\x00" + good[start:])
    assert main(["merge", "--ratio", "0.2,0.5,0.3", "--components", components, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid archive {archives[1]}: corrupt header: Extra data")
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


def test_merge_cli_that_overflows_in_a_later_block_writes_nothing(tmp_path, capsys, monkeypatch):
    # Small finite values, but the last ones differ by more than float64 holds,
    # so the third block overflows after two finite blocks were written.
    size = 2 * merge_engine.BLOCK + 3
    paths = []
    for i, edge in enumerate([1e308, -1e308, 1e308]):
        values = np.full(size, 0.25 * i)
        values[-1] = edge
        paths.append(tmp_path / f"big{i}.dmxt")
        save_archive(ParameterSet.from_arrays({"w": values}), paths[-1])
    out = tmp_path / "merged.dmxt"
    out.write_bytes(b"an earlier file")
    kernel_calls = []
    kernel = merge_engine.merge_block

    def counting(*args):
        kernel_calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(merge_engine, "merge_block", counting)
    components = ",".join(str(p) for p in paths)
    assert main(["merge", "--ratio", "0.4,0.3,0.3", "--components", components, "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert len(kernel_calls) == 3
    assert out.read_bytes() == b"an earlier file"
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
    assert main(["dedup", "--in", str(docs), "--report", str(report), "--out", str(kept)]) == 0
    doc = json.loads(report.read_text())
    assert doc["counts"] == {"kept": 2, "removed": 1, "clusters": 1}
    assert [json.loads(l)["id"] for l in kept.read_text().splitlines()] == ["a", "c"]


@needs_fork
def test_a_dedup_starts_no_process_where_it_could_fork(tmp_path, capsys, forks):
    rng = np.random.default_rng(8)
    texts = [" ".join(f"w{i}" for i in rng.integers(0, 10_000, size=50)) for _ in range(6)]
    texts.append(texts[4].rsplit(" ", 1)[0] + " tail")
    docs = tmp_path / "docs.jsonl"
    docs.write_text("".join(json.dumps({"id": f"d{i}", "text": t}) + "\n" for i, t in enumerate(texts)))
    report = tmp_path / "report.json"
    assert main(["dedup", "--in", str(docs), "--report", str(report)]) == 0
    assert forks == []
    assert json.loads(report.read_text())["removed"] == [{"id": "d6", "reason": "fuzzy"}]
    assert capsys.readouterr().out == "kept 6, removed 1\n"


@pytest.mark.parametrize("mode", ["exact", "fuzzy", "both"])
def test_dedup_with_ngram_below_one_is_a_usage_error(tmp_path, capsys, mode):
    """`--mode` and `--ngram` are gone, so a zero n-gram is refused with them."""
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"id": "a", "text": "alpha beta gamma"}\n{"id": "b", "text": "..."}\n')
    report = tmp_path / "report.json"
    argv = ["dedup", "--in", str(docs), "--mode", mode, "--ngram", "0", "--report", str(report)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses an unknown option
        code = exc.code
    assert code == 2
    assert "ngram" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("removed", ["--mode=both", "--seed=0", "--ngram=24", "run_root"])
def test_removed_dedup_options_and_run_root_key_are_usage_errors(tmp_path, capsys, removed):
    """The dedup settings are constants of `demix.dedup`, and `--run-root` is
    the one way to set the root of the run directories."""
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"id": "a", "text": "alpha beta gamma"}\n{"id": "b", "text": "..."}\n')
    report = tmp_path / "report.json"
    if removed == "run_root":
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"[experiment]\nrun_root = {tmp_path / 'runs'}\n")
        argv = ["run", "--config", str(cfg), "--run-root", str(tmp_path / "elsewhere")]
    else:
        argv = ["dedup", "--in", str(docs), removed, "--report", str(report)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses an unknown option
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    if removed == "run_root":
        assert "unknown key 'run_root' in [experiment]" in err
    else:
        assert f"unrecognized arguments: {removed}" in err
    assert "Traceback" not in err
    assert not report.exists()
    assert not (tmp_path / "runs").exists() and not (tmp_path / "elsewhere").exists()


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


@pytest.mark.parametrize("command", ["dedup", "merge", "lab-gen", "search"])
def test_an_output_write_that_fails_part_way_leaves_the_old_file_and_no_temp_file(
    tmp_path, archives, capsys, monkeypatch, command
):
    docs = tmp_path / "docs.jsonl"
    docs.write_text("".join(json.dumps({"id": f"d{i}", "text": f"words of doc {i}"}) + "\n"
                            for i in range(20)))
    out = tmp_path / "out" / "result"
    out.parent.mkdir()
    out.write_bytes(b"old contents\n")
    argv = {
        "dedup": ["dedup", "--in", str(docs), "--report", str(tmp_path / "r.json"), "--out", str(out)],
        "merge": ["merge", "--ratio", "0.2,0.3,0.5", "--out", str(out),
                  "--components", ",".join(str(p) for p in archives)],
    }.get(command)
    if command == "lab-gen":
        def write():
            pipeline.generate_lab(ExperimentConfig(), out)
    elif command == "search":
        lab = make_domains(2, 8, seed=3)
        _, comps = prepare_components(lab.candidates, lab.general, ComponentTrainingConfig(steps=5))
        config = ExperimentConfig(search=SamplePlan(plan=[4, 2], pool=50, top_k=4))

        def write():
            pipeline.search_mixture(config, lab, comps, out, tmp_path / "transcript.jsonl")

    def opener(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return _FailsPartWay(fh, 64) if Path(path).name.startswith(out.name) else fh

    monkeypatch.setattr(tensor_store, "open", opener, raising=False)
    if argv:
        assert main(argv) == 3
        assert "No space left on device" in capsys.readouterr().err
    else:
        with pytest.raises(OSError, match="No space left on device"):
            write()
    assert out.read_bytes() == b"old contents\n"
    assert [p.name for p in out.parent.iterdir()] == ["result"]
    monkeypatch.undo()
    if argv:
        assert main(argv) == 0
    else:
        write()
    assert out.read_bytes() != b"old contents\n"
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


def test_score_csv_rejects_repeated_rows(tmp_path):
    ref, domains = tmp_path / "ref.csv", tmp_path / "domains.csv"
    rows = "".join(f"m{i},x,{i}.0\nm{i},y,{i % 3}.0\n" for i in range(4))
    ref.write_text("model_id,benchmark_id,score\n" + rows + "m0,x,9.0\n")
    domains.write_text("benchmark_id,domain\nx,d1\ny,d2\n")
    with pytest.raises(ValidationError) as exc:
        read_score_csv(ref, domains)
    assert f"{ref}:10: repeated model_id,benchmark_id 'm0,x', first on line 2" in str(exc.value)
    ref.write_text("model_id,benchmark_id,score\n" + rows)
    domains.write_text("benchmark_id,domain\nx,d1\ny,d2\nx,d2\n")
    with pytest.raises(ValidationError) as exc:
        read_score_csv(ref, domains)
    assert f"{domains}:4: repeated benchmark_id 'x', first on line 2" in str(exc.value)


def test_help_lists_the_three_commands_and_no_stage_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{merge,dedup,run}" in capsys.readouterr().out
    # `demix run` is the one way to run a stage, and it prints the report.
    for argv in (["lab", "gen"], ["search"], ["eval"], ["report", "--manifest", "m.json"],
                 ["tensor", "inspect", "a.dmxt"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def run_python(code: str, **env) -> str:
    """What ``code`` prints in a fresh interpreter that imports this demix,
    with the environment changed by ``env`` (None unsets a variable)."""
    env = {**os.environ, "PYTHONPATH": str(Path(demix.__file__).resolve().parents[1]), **env}
    env = {key: value for key, value in env.items() if value is not None}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_demix_loads_no_numpy():
    code = "import sys, demix\nassert 'numpy' not in sys.modules, 'numpy loaded'\nprint(demix.__version__)"
    assert run_python(code) == f"{demix.__version__}\n"


def test_a_dedup_imports_no_numpy_ma(tmp_path):
    docs = tmp_path / "docs.jsonl"
    texts = ["alpha beta gamma delta", "alpha beta gamma delta", "something entirely different"]
    docs.write_text("".join(json.dumps({"id": f"d{i}", "text": t}) + "\n" for i, t in enumerate(texts)))
    code = (
        "import sys\nfrom demix.cli import main\n"
        f"assert main(['dedup', '--in', {str(docs)!r}, '--report', {str(tmp_path / 'r.json')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)"
    )
    assert run_python(code).splitlines()[-1] == "False"


@pytest.mark.parametrize("value, kept", [(None, "1"), ("2", "2")], ids=["unset", "set"])
def test_the_cli_pins_blas_to_one_thread_unless_the_variable_is_set(value, kept):
    code = (
        "import os, demix.cli\n"
        "from demix import forking\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], forking.can_fork())"
    )
    pinned, can_fork = run_python(code, OPENBLAS_NUM_THREADS=value).split()
    assert pinned == kept
    # Pinned before numpy loads, BLAS starts no thread and the process may fork.
    two_cpus = sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2
    assert can_fork == str(value is None and two_cpus)


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
    (run_dir,) = (tmp_path / "runs").iterdir()
    doc = json.loads((run_dir / "report.json").read_text())
    assert doc["proxy_budget"]["used"] == 9
    assert "\n".join(lines[7:]) == pipeline.format_report(doc)


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
    # configparser's defaults section would set keys silently, or in every section.
    for body in ("[DEFAULT]\nseed = 3\nbananas = 1\n", "[DEFAULT]\nsteps = 7\n[training]\n"):
        cfg.write_text(body)
        assert main(["run", "--config", str(cfg), "--run-root", str(tmp_path / "runs")]) == 2
        assert "unknown section [DEFAULT]" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


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


def test_a_value_that_is_not_a_boolean_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[training]\nfull_batch = maybe\n")
    assert main(["run", "--config", str(cfg), "--run-root", str(tmp_path / "runs")]) == 2
    assert "config: cannot parse boolean 'maybe'" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()
    for text in ("No", "OFF", "0"):
        cfg.write_text(f"[training]\nfull_batch = {text}\n")
        assert load_config(cfg).training.full_batch is False


SMALL_CONFIG = (
    "[experiment]\nseed = 1\n\n"
    "[training]\nsteps = 40\nbase_steps = 40\n\n"
    "[references]\ncount = 6\n\n"
    "[search]\nplan = 6,3\npool = 800\ntop_k = 8\ngbdt_rounds = 40\n"
)


def test_a_run_over_eleven_domains_keys_every_component_by_its_id(tmp_path):
    # From 11 domains on, dom10 sorts before dom2.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[lab]\nn_domains = 11\n" + SMALL_CONFIG)
    config = load_config(cfg)
    manifest = pipeline.run_pipeline(config, run_root=tmp_path / "runs")
    run_dir = Path(manifest.run_dir)
    ids = [f"dom{k}" for k in range(11)]
    assert all((run_dir / f"component_{i}.dmxt").exists() for i in ids)
    best = json.loads((run_dir / "search_result.json").read_text())["best_mixture"]
    assert sorted(best) == sorted(ids)
    assert sum(best.values()) == pytest.approx(1.0, abs=1e-9)
    again = pipeline.run_pipeline(config, run_root=tmp_path / "runs")
    assert not any(record.get("recomputed") for record in again.stages.values())


def test_report_reads_the_run_directory_its_manifest_is_in(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CONFIG)
    assert main(["run", "--config", str(cfg), "--run-root", str(tmp_path / "runs")]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    (tmp_path / "moved").mkdir()
    moved = run_dir.rename(tmp_path / "moved" / run_dir.name)  # the original directory is gone
    report = json.loads((moved / "report.json").read_text())
    report["experiment"]["name"] = "moved"  # the run keeps a report it finds
    (moved / "report.json").write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--run-root", str(tmp_path / "moved")]) == 0
    out = capsys.readouterr().out
    assert "(ran)" not in out and pipeline.format_report(report) in out


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
    with pytest.raises(ValidationError):
        read_score_csv(tmp_path / "scores.csv", tmp_path / "scores.csv")
    (tmp_path / "scores.csv").write_text("model_id,benchmark_id,score\nm0,b0\n")
    (tmp_path / "domains.csv").write_text("benchmark_id,domain\nb0,d0\n")
    with pytest.raises(ValidationError) as exc:
        read_score_csv(tmp_path / "scores.csv", tmp_path / "domains.csv")
    assert f"{tmp_path / 'scores.csv'}:2:" in str(exc.value)


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


def test_malformed_lab_files_are_usage_errors_naming_the_path(tmp_path):
    not_npz = tmp_path / "not_npz"
    not_npz.write_text("no lab here\n")
    no_meta = tmp_path / "no_meta.npz"
    with open(no_meta, "wb") as fh:
        np.savez(fh, general_X=np.zeros((2, 2)))
    for lab in (not_npz, no_meta, tmp_path / "missing.npz"):
        with pytest.raises(ValidationError) as exc:
            load_lab(lab)
        assert str(lab) in str(exc.value)


@pytest.mark.parametrize(
    "base, problem",
    [
        ({"w1": np.zeros((13, 4)), "b1": np.zeros(4), "w2": np.zeros(4), "b2": np.zeros(1)},
         "the initial model is mlp_1hidden, but the config trains linear_regression"),
        ({"w": np.zeros(8), "b": np.zeros(1)}, "do not fit 13-dim inputs"),
    ],
    ids=["other-family", "other-input-dim"],
)
def test_a_base_of_the_wrong_schema_is_a_usage_error(tmp_path, base, problem):
    config = ExperimentConfig()
    lab = make_domains(config.lab.n_domains, config.lab.feature_dim, config.seed)
    with pytest.raises(SchemaMismatchError) as exc:  # a ValidationError, exit code 2
        pipeline.train_references(config, lab, ParameterSet.from_arrays(base), tmp_path)
    assert problem in str(exc.value)


def test_lab_gen_writes_the_path_it_is_given(tmp_path):
    out = tmp_path / "labx"
    pipeline.generate_lab(ExperimentConfig(), out)
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
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CONFIG)
    run_dir = tmp_path / "runs" / load_config(cfg).content_hash()
    run_dir.mkdir(parents=True)
    (run_dir / "manifest.json").write_text(text)
    assert main(["run", "--config", str(cfg), "--run-root", str(tmp_path / "runs")]) == 7
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
        (["run", "--config", str(missing)], 2),
        (["dedup", "--in", str(missing), "--report", str(tmp_path / "r.json")], 2),
    ]:
        assert main(argv) == code, argv
        assert str(missing) in capsys.readouterr().err
    with pytest.raises(ValidationError) as exc:
        read_score_csv(missing, tmp_path / "domains.csv")
    assert str(missing) in str(exc.value)


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
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CONFIG)
    argv = ["run", "--config", str(cfg), "--run-root", str(tmp_path / "runs")]
    assert main(argv) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    path = run_dir / "report.json"
    capsys.readouterr()
    if report_text is None:
        # `demix run` rebuilds a missing report; reading it directly names the file.
        path.unlink()
        with pytest.raises(PipelineError) as exc:
            pipeline.load_report(ExperimentManifest.load(run_dir / "manifest.json")[0])
        err = str(exc.value)
    else:
        # A finished run keeps its report.json as it finds it, so an edited one is read.
        path.write_text(report_text)
        assert main(argv) == 7
        err = capsys.readouterr().err
    assert problem in err and str(path) in err
    path.write_text(json.dumps(WELL_TYPED_REPORT))
    assert main(argv) == 0
    assert pipeline.format_report(WELL_TYPED_REPORT) in capsys.readouterr().out
