"""Property tests of the input parsers: arbitrary input gives either a value
or a typed DemixError, never any other exception."""

import io
import json
import math
from dataclasses import fields

import numpy as np
from hypothesis import given, settings, strategies as st

from demix.cli import _parse_ratio, main
from demix.config import SECTIONS, ExperimentConfig, _apply, _validate, load_config
from demix.errors import DemixError, PipelineError
from demix.pipeline import ExperimentManifest, read_score_csv
from demix.toy_lab import load_lab

CONFIG_KEYS = [("experiment", key) for key in ("name", "seed")] + [
    (section, f.name) for section in SECTIONS for f in fields(getattr(ExperimentConfig(), section))
]


def value_or_typed_error(parse, *args):
    try:
        return parse(*args)
    except DemixError:
        return None


@settings(max_examples=200, deadline=None)
@given(text=st.text())
def test_config_file_parses_or_gives_a_typed_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cfg") / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    value_or_typed_error(load_config, path)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(CONFIG_KEYS), text=st.text() | st.sampled_from(["nan", "inf", "-1", "0"]))
def test_every_config_value_parses_or_gives_a_typed_error(key, text):
    section, name = key
    config = ExperimentConfig()
    target = config if section == "experiment" else getattr(config, section)

    def apply_and_validate():
        _apply(target, [(name, text)], section)
        _validate(config)
        return config

    if value_or_typed_error(apply_and_validate) is not None:
        sections = [getattr(config, s) for s in SECTIONS]
        floats = [getattr(obj, f.name) for obj in sections for f in fields(obj) if f.type == "float"]
        assert floats and all(math.isfinite(v) for v in floats)


@settings(max_examples=200, deadline=None)
@given(text=st.text())
def test_ratio_parses_or_gives_a_typed_error(text):
    value_or_typed_error(_parse_ratio, text, ["a", "b", "c"])


def csv_body(*columns):
    """CSV bodies over a few values per column, so that rows often make a
    whole table and often repeat a key."""
    line = st.tuples(*(st.sampled_from(values) for values in columns)).map(",".join)
    return st.lists(line, max_size=6).map("\n".join)


@settings(max_examples=200, deadline=None)
@given(
    scores=st.text() | csv_body(["a", "b"], ["x", "y"], ["1.0", "2.5", "nan", ""]),
    domains=st.text() | csv_body(["x", "y"], ["d1", "d2"]),
)
def test_score_csv_parses_or_gives_a_typed_error(tmp_path_factory, scores, domains):
    root = tmp_path_factory.mktemp("csv")
    (root / "scores.csv").write_text("model_id,benchmark_id,score\n" + scores, encoding="utf-8")
    (root / "domains.csv").write_text("benchmark_id,domain\n" + domains, encoding="utf-8")
    value_or_typed_error(read_score_csv, root / "scores.csv", root / "domains.csv")


JSONL_DOCS = st.lists(
    st.dictionaries(st.sampled_from(["id", "text"]), st.text() | st.integers() | st.none())
).map(lambda docs: "\n".join(json.dumps(doc) for doc in docs).encode("utf-8"))


@settings(max_examples=200, deadline=None)
@given(data=st.binary() | JSONL_DOCS)
def test_any_corpus_gives_a_report_or_a_usage_error(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("corpus")
    (root / "docs.jsonl").write_bytes(data)
    argv = ["dedup", "--in", str(root / "docs.jsonl"), "--report", str(root / "report.json")]
    assert main(argv) in (0, 2)


def npz_bytes(meta: bytes) -> bytes:
    """An npz archive whose ``meta`` member holds the given bytes."""
    buffer = io.BytesIO()
    np.savez(buffer, meta=np.frombuffer(meta, dtype=np.uint8), cand_0_X=np.zeros((2, 2)))
    return buffer.getvalue()


LAB_META = st.recursive(
    st.none() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "domain", "scoring", "candidates", "tasks"]),
                      inner, max_size=4),
    max_leaves=10,
).map(lambda doc: json.dumps(doc).encode("utf-8"))


@settings(max_examples=200, deadline=None)
@given(
    data=st.binary()
    | st.binary().map(lambda b: b"PK\x03\x04" + b)
    | st.binary().map(lambda b: b"\x93NUMPY" + b)
    | (st.binary() | LAB_META).map(npz_bytes)
)
def test_any_bytes_as_a_lab_give_a_lab_or_a_typed_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("lab") / "lab.npz"
    path.write_bytes(data)
    value_or_typed_error(load_lab, path)


# Any JSON value, and objects whose every field is either any JSON value or
# a value of the field's type, so that many of them load.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
STAGE_RECORDS = st.fixed_dictionaries(
    {"status": st.text(max_size=4)}, optional={"hash": st.none() | st.text(max_size=4)}
)
FILE_RECORDS = st.fixed_dictionaries(
    {"digest": st.text(max_size=4), "stamp": st.lists(st.integers(), min_size=3, max_size=5)}
)
MANIFEST_FIELDS = {
    "config": st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=2),
    "config_hash": st.text(max_size=4),
    "run_dir": st.text(max_size=4),
    "stages": st.dictionaries(st.sampled_from(["lab", "search"]), STAGE_RECORDS | JSON_VALUES),
    "files": st.dictionaries(st.text(max_size=3), FILE_RECORDS | JSON_VALUES, max_size=3),
    "created_at": st.floats(),
}
MANIFEST_DOCS = JSON_VALUES | st.fixed_dictionaries(
    {key: MANIFEST_FIELDS[key] | JSON_VALUES for key in ("config", "config_hash", "run_dir")},
    optional={key: MANIFEST_FIELDS[key] | JSON_VALUES for key in ("stages", "files", "created_at")},
)


@settings(max_examples=300, deadline=None)
@given(doc=MANIFEST_DOCS)
def test_any_json_as_a_manifest_gives_a_manifest_or_a_pipeline_error(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("manifest") / "manifest.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        manifest = ExperimentManifest.load(path)[0]
    except PipelineError:
        return
    assert all(isinstance(record["status"], str) for record in manifest.stages.values())
    assert all(isinstance(record["digest"], str) for record in manifest.files.values())
