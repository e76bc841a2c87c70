"""Tests for parameter containers, the archive format, and delta calculus."""

import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from demix.errors import ArchiveError, NonFiniteError, SchemaMismatchError, ValidationError
from demix.tensor_store import (
    ParameterSet,
    apply_delta,
    compute_delta,
    delta_magnitude,
    load_archive,
    read_header,
    save_archive,
)


def small_set(model_id="m"):
    return ParameterSet.from_arrays(
        {"w": np.array([1.0, 2.0]), "b": np.array([0.5])}, model_id=model_id
    )


def assert_same_values(a: ParameterSet, b: ParameterSet):
    assert a.schema() == b.schema()
    for name in a.names():
        assert np.array_equal(a.entries[name], b.entries[name])


# --- containers -------------------------------------------------------------


def test_non_finite_rejected_on_construction():
    with pytest.raises(NonFiniteError, match="non-finite"):
        ParameterSet.from_arrays({"w": np.array([1.0, np.nan])})


# --- archive format ----------------------------------------------------------


def test_2d_and_0d_tensors_keep_their_shapes_through_an_archive(tmp_path):
    arrays = {"m": np.arange(12.0).reshape(3, 4), "s": np.float64(2.5)}
    params = ParameterSet.from_arrays(arrays)
    save_archive(params, tmp_path / "p.dmxt")
    loaded = load_archive(tmp_path / "p.dmxt")
    for held in (params, loaded):
        assert {n: a.shape for n, a in held.entries.items()} == {"m": (3, 4), "s": ()}
        assert all(np.array_equal(held.entries[n], a) for n, a in arrays.items())


def test_save_load_roundtrip(tmp_path):
    path = tmp_path / "p.dmxt"
    p = small_set()
    save_archive(p, path)
    q = load_archive(path)
    assert_same_values(p, q)
    assert q.model_id == "m"


def test_archive_bytes_are_deterministic(tmp_path):
    p = ParameterSet.from_arrays({"b": np.array([2.0]), "a": np.array([1.0])})
    save_archive(p, tmp_path / "one.dmxt")
    save_archive(p, tmp_path / "two.dmxt")
    assert (tmp_path / "one.dmxt").read_bytes() == (tmp_path / "two.dmxt").read_bytes()


def test_large_tensor_checksum_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.standard_normal(1_000_000)
    before = hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()
    path = tmp_path / "big.dmxt"
    save_archive(ParameterSet.from_arrays({"big": values}), path)
    loaded = load_archive(path)
    after = hashlib.sha256(loaded.entries["big"].astype("<f8").tobytes()).hexdigest()
    assert before == after


def test_save_rejects_non_finite(tmp_path):
    p = small_set()
    p.entries["w"] = p.entries["w"].copy()
    p.entries["w"][0] = np.inf  # bypass construction check
    with pytest.raises((NonFiniteError, ArchiveError), match="non-finite"):
        save_archive(p, tmp_path / "bad.dmxt")


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "p.dmxt"
    save_archive(small_set(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ArchiveError, match="truncated payload"):
        load_archive(path)


def _write_archive(path, header_doc, payload):
    header = json.dumps(header_doc).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIQ", b"DMXT", 1, len(header)))
        fh.write(header)
        fh.write(payload)


def test_header_shape_length_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.dmxt"
    payload = np.arange(5.0).astype("<f8").tobytes()
    doc = {
        "tensors": [{"name": "w", "shape": [2, 3], "offset": 0, "length": len(payload)}],
        "metadata": {},
    }
    _write_archive(path, doc, payload)
    with pytest.raises(ArchiveError, match="shape/length mismatch"):
        load_archive(path)


def test_overlapping_offsets_rejected(tmp_path):
    path = tmp_path / "bad.dmxt"
    payload = np.arange(4.0).astype("<f8").tobytes()
    doc = {
        "tensors": [
            {"name": "a", "shape": [2], "offset": 0, "length": 16},
            {"name": "b", "shape": [2], "offset": 8, "length": 16},
        ],
        "metadata": {},
    }
    _write_archive(path, doc, payload)
    with pytest.raises(ArchiveError, match="ascending"):
        load_archive(path)


def test_bad_magic_and_version_rejected(tmp_path):
    path = tmp_path / "p.dmxt"
    save_archive(small_set(), path)
    blob = bytearray(path.read_bytes())
    doctored = tmp_path / "doctored.dmxt"
    doctored.write_bytes(b"NOPE" + bytes(blob[4:]))
    with pytest.raises(ArchiveError, match="magic"):
        load_archive(doctored)
    doctored.write_bytes(bytes(blob[:4]) + struct.pack("<I", 99) + bytes(blob[8:]))
    with pytest.raises(ArchiveError, match="version"):
        load_archive(doctored)


def test_read_header_reports_index_and_metadata(tmp_path):
    path = tmp_path / "p.dmxt"
    save_archive(small_set("base-7"), path, metadata={"provenance": "test"})
    header = read_header(path)
    assert header.metadata["model_id"] == "base-7"
    assert header.metadata["provenance"] == "test"
    assert [entry[0] for entry in header.index] == ["b", "w"]  # lexicographic


def test_read_header_reads_only_the_header(tmp_path):
    path = tmp_path / "big.dmxt"
    save_archive(ParameterSet.from_arrays({"big": np.zeros(4 << 20)}), path)  # 32 MiB payload
    tracemalloc.start()
    try:
        header = read_header(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert header.index == [("big", (4 << 20,), 0, 32 << 20)]
    assert peak < 1 << 20


JSON_ANY = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
TENSOR_ENTRY = st.fixed_dictionaries(
    {
        "name": st.text(max_size=3) | JSON_ANY,
        "shape": st.lists(st.integers(-2, 4) | st.just(2**70) | JSON_ANY, max_size=3) | JSON_ANY,
        "offset": st.sampled_from([0, 8, 16, -8]) | JSON_ANY,
        "length": st.sampled_from([0, 8, 16, 32]) | JSON_ANY,
    }
)
HEADER_DOC = st.fixed_dictionaries(
    {
        "tensors": st.lists(TENSOR_ENTRY, max_size=3) | JSON_ANY,
        "metadata": st.dictionaries(st.text(max_size=4), JSON_ANY, max_size=3) | JSON_ANY,
    }
) | JSON_ANY


@settings(max_examples=300, deadline=None)
@given(
    doc=HEADER_DOC,
    magic=st.sampled_from([b"DMXT", b"NOPE"]),
    version=st.sampled_from([1, 2]),
    header_len_error=st.integers(-4, 4) | st.just(2**40),
    payload=st.binary(max_size=48),
    cut=st.none() | st.integers(0, 120),
)
def test_any_header_gives_a_value_or_an_archive_error(
    tmp_path_factory, doc, magic, version, header_len_error, payload, cut
):
    header = json.dumps(doc).encode("utf-8")
    declared = max(0, len(header) + header_len_error)
    blob = struct.pack("<4sIQ", magic, version, declared) + header + payload
    path = tmp_path_factory.mktemp("dmxt") / "fuzzed.dmxt"
    path.write_bytes(blob[:cut])
    for read in (read_header, load_archive):
        try:
            read(path)
        except ArchiveError:
            pass


def test_reported_malformed_headers_are_archive_errors(tmp_path):
    path = tmp_path / "bad.dmxt"
    entry = {"name": "w", "shape": [1], "offset": 0, "length": 8}
    payload = np.zeros(1).tobytes()
    for doc, message in [
        ({"tensors": [entry], "metadata": [1]}, "corrupt header"),
        ({"tensors": [{**entry, "shape": [2**70]}], "metadata": {}}, "shape/length mismatch"),
        ({"tensors": [{**entry, "name": ["w"]}], "metadata": {}}, "not a string"),
    ]:
        _write_archive(path, doc, payload)
        for read in (read_header, load_archive):
            with pytest.raises(ArchiveError, match=message):
                read(path)


# --- delta calculus ----------------------------------------------------------


def test_zero_delta_for_identical_sets():
    p = small_set()
    delta = compute_delta(p, p)
    assert all(np.all(delta.entries[n] == 0.0) for n in delta.names())


def test_delta_hand_case():
    base = ParameterSet.from_arrays({"w": np.array([1.0, 1.0])}, model_id="b")
    trained = ParameterSet.from_arrays({"w": np.array([3.0, 0.0])}, model_id="t")
    delta = compute_delta(trained, base)
    assert np.array_equal(delta.entries["w"], np.array([2.0, -1.0]))
    assert delta.base_id == "b"


def test_apply_delta_requires_matching_base_id():
    base = small_set("left")
    other = small_set("right")
    delta = compute_delta(base, base)
    with pytest.raises(SchemaMismatchError, match="taken against"):
        apply_delta(other, delta)


def test_schema_mismatch_rejected():
    a = ParameterSet.from_arrays({"w": np.ones(2)})
    b = ParameterSet.from_arrays({"w": np.ones(3)})
    with pytest.raises(SchemaMismatchError):
        compute_delta(a, b)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_delta_roundtrip_is_exact_for_representable_updates(seed):
    rng = np.random.default_rng(seed)
    base = ParameterSet.from_arrays(
        {"w": rng.standard_normal(32), "b": rng.standard_normal(4)}, model_id="base"
    )
    update = {n: 0.1 * rng.standard_normal(base.entries[n].size) for n in base.names()}
    trained = ParameterSet.from_arrays(
        {n: base.entries[n] + update[n] for n in base.names()}, model_id="trained"
    )
    recovered = apply_delta(base, compute_delta(trained, base), model_id="trained")
    assert_same_values(recovered, trained)


def test_delta_magnitude_zero_for_identical_nonzero():
    p = small_set()
    assert delta_magnitude(p, p) == 0.0


def test_delta_magnitude_hand_case_one_third():
    base = ParameterSet.from_arrays({"w": np.array([1.0])})
    trained = ParameterSet.from_arrays({"w": np.array([2.0])})
    assert delta_magnitude(trained, base) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_delta_magnitude_bounded_and_degenerate():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = ParameterSet.from_arrays({"w": rng.standard_normal(16)})
        b = ParameterSet.from_arrays({"w": rng.standard_normal(16)})
        assert 0.0 <= delta_magnitude(a, b) <= 1.0
    zeros = ParameterSet.from_arrays({"w": np.zeros(4)})
    with pytest.raises(ValidationError, match="degenerate"):
        delta_magnitude(zeros, zeros)
