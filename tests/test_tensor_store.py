"""Tests for the parameter container and the archive format."""

import dataclasses
import errno
import hashlib
import json
import mmap
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from demix.errors import ArchiveError, NonFiniteError
from demix.merge_engine import MixtureRatio, merge
from demix.tensor_store import ParameterSet, _read_header, load_archive, save_archive


def small_set(model_id="m"):
    return ParameterSet.from_arrays(
        {"w": np.array([1.0, 2.0]), "b": np.array([0.5])}, model_id=model_id
    )


def assert_same_values(a: ParameterSet, b: ParameterSet):
    assert a.schema() == b.schema()
    for name in a.names():
        assert np.array_equal(a.entries[name], b.entries[name])


def read_header(path):
    """The archive's header, parsed as load_archive parses it."""
    with open(path, "rb") as fh:
        return _read_header(fh)


def payload_start(blob):
    """The file offset of an archive's payload: preamble plus declared header length."""
    return 16 + struct.unpack_from("<Q", blob, 8)[0]


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
    # save_archive checks nothing itself: a set is checked once, when it is
    # built, and nothing can write a non-finite value into it afterwards.
    with pytest.raises(NonFiniteError, match="non-finite"):
        ParameterSet.from_arrays({"w": np.array([1.0, np.inf])})
    p = small_set()
    with pytest.raises(ValueError, match="read-only"):
        p.entries["w"][0] = np.inf
    with pytest.raises(TypeError):
        p.entries["w"] = np.array([np.inf, 2.0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.entries = {"w": np.array([np.inf])}
    save_archive(p, tmp_path / "p.dmxt")
    assert_same_values(load_archive(tmp_path / "p.dmxt"), small_set())


def test_a_set_shares_its_callers_arrays_and_leaves_them_writable():
    w = np.array([1.0, 2.0])
    p = ParameterSet.from_arrays({"w": w})
    assert np.shares_memory(p.entries["w"], w)
    assert w.flags.writeable and not p.entries["w"].flags.writeable


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


def _write_unpadded_archive(path, arrays, metadata):
    """``arrays`` as save_archive wrote them before it padded the header:
    the payload starts right after the JSON, at whatever offset that gives."""
    index, payload, offset = [], [], 0
    for name in sorted(arrays):
        values = np.asarray(arrays[name], dtype="<f8")
        index.append({"length": values.nbytes, "name": name, "offset": offset, "shape": list(values.shape)})
        payload.append(values.tobytes())
        offset += values.nbytes
    _write_archive(path, {"metadata": metadata, "tensors": index}, b"".join(payload))


def _repadded(blob, padding):
    """``blob`` with its header's trailing spaces replaced by ``padding``."""
    header = blob[16 : payload_start(blob)].rstrip(b" ") + padding
    return blob[:8] + struct.pack("<Q", len(header)) + header + blob[payload_start(blob) :]


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
    # So load_archive copies no payload: it maps it.
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


def test_load_maps_the_payload_instead_of_copying_it(tmp_path):
    path = tmp_path / "big.dmxt"
    save_archive(ParameterSet.from_arrays({"big": np.zeros(4 << 20)}), path)  # 32 MiB payload
    tracemalloc.start()
    try:
        loaded = load_archive(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not loaded.entries["big"].any()
    # The finiteness check's mask, 4 MiB here, is the largest allocation.
    assert peak < 8 << 20


def test_a_loaded_set_keeps_its_values_when_its_archive_is_replaced(tmp_path):
    path = tmp_path / "p.dmxt"
    save_archive(small_set(), path)
    loaded = load_archive(path)
    save_archive(ParameterSet.from_arrays({"w": np.array([7.0, 8.0]), "b": np.array([9.0])}), path)
    assert_same_values(loaded, small_set())
    assert load_archive(path).entries["w"].tolist() == [7.0, 8.0]


def test_payloads_at_every_alignment_load_bit_exactly_and_merge_as_their_copies(tmp_path):
    # save_archive aligns every payload, so archives written before it padded
    # the header are written by hand here, at each of the 8 residues.
    rng = np.random.default_rng(11)
    # Two blocks of the merge kernel and a little more, a matrix and a scalar.
    arrays = [{"long": rng.standard_normal((1 << 16) + 5), "m": rng.standard_normal((3, 5)),
               "s": rng.standard_normal(())} for _ in range(3)]
    ratio = MixtureRatio(weights=[0.5, 0.3, 0.2], candidate_ids=["a", "b", "c"])
    residues = set()
    for pad in range(8):
        loaded = []
        for i, values in enumerate(arrays):
            path = tmp_path / f"c{i}_{pad}.dmxt"
            _write_unpadded_archive(path, values, {"model_id": f"c{i}", "pad": "x" * pad})
            loaded.append(load_archive(path))
            for name, arr in loaded[-1].entries.items():
                assert arr.shape == values[name].shape
                assert arr.tobytes() == values[name].tobytes()
                with pytest.raises(ValueError):
                    arr.flags.writeable = True
        residues.add(loaded[0].entries["long"].ctypes.data % 8)
        mapped = merge(loaded, ratio).parameters()
        copied = merge([params.copy() for params in loaded], ratio).parameters()
        for name in mapped.names():
            assert mapped.entries[name].tobytes() == copied.entries[name].tobytes()
        # Saved again, an old archive gets the aligned layout and keeps its payload.
        old = (tmp_path / f"c0_{pad}.dmxt").read_bytes()
        save_archive(loaded[0], tmp_path / "again.dmxt")
        new = (tmp_path / "again.dmxt").read_bytes()
        assert payload_start(new) % 64 == 0
        assert new[payload_start(new) :] == old[payload_start(old) :]
        assert_same_values(load_archive(tmp_path / "again.dmxt"), loaded[0])
    assert residues == set(range(8))


def test_save_starts_every_payload_on_a_64_byte_boundary(tmp_path):
    # Every tensor a multiple of 8 values long, so every one starts on a cache line.
    arrays = {"a": np.arange(8.0), "b": np.arange(16.0).reshape(2, 8), "c": -np.arange(24.0)}
    json_ends = set()
    for pad in range(64):
        path = tmp_path / f"p{pad}.dmxt"
        save_archive(ParameterSet.from_arrays(arrays), path, metadata={"pad": "x" * pad})
        blob = path.read_bytes()
        header = blob[16 : payload_start(blob)].decode("utf-8")
        _, json_end = json.JSONDecoder().raw_decode(header)
        json_ends.add((16 + json_end) % 64)
        assert payload_start(blob) % 64 == 0
        assert set(header[json_end:]) <= {" "} and len(header) - json_end < 64
        for name, arr in load_archive(path).entries.items():
            assert arr.ctypes.data % 64 == 0
            assert arr.tobytes() == arrays[name].tobytes()
    assert json_ends == set(range(64))


@pytest.mark.parametrize("padding", [b"\t", b"\n", b" \r\n\t"], ids=["tab", "lf", "mixed"])
def test_header_padding_of_any_json_whitespace_loads(tmp_path, padding):
    path = tmp_path / "p.dmxt"
    save_archive(small_set(), path)
    path.write_bytes(_repadded(path.read_bytes(), padding))
    assert_same_values(load_archive(path), small_set())


def test_save_copies_no_payload(tmp_path):
    params = ParameterSet.from_arrays({"big": np.zeros(1 << 20)})  # 8 MiB
    tracemalloc.start()
    try:
        save_archive(params, tmp_path / "big.dmxt")
        save_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Not even a finiteness mask, 1 MiB here: the set was checked when it was built.
    assert save_peak < 1 << 20


def pinned_set():
    return ParameterSet.from_arrays(
        {
            "m": np.arange(12.0).reshape(3, 4) / 7.0,
            "s": np.float64(-2.5),
            "e": np.zeros((2, 0)),
            "v": np.array([1e-300, -0.0, 1e300]),
            "t": (np.arange(6.0).reshape(2, 3) - 2.5).T,  # not C-contiguous
        },
        model_id="pinned",
    )


def test_checksum_and_archive_bytes_are_pinned(tmp_path):
    path = tmp_path / "pinned.dmxt"
    save_archive(pinned_set(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "7f3b6442b13476061ffc8f2f89e3ba0007578aab7403763e2edb534998e33d3d"
    )
    save_archive(load_archive(path), tmp_path / "again.dmxt")
    assert (tmp_path / "again.dmxt").read_bytes() == path.read_bytes()
    # The bytes save_archive wrote before it padded the header still load and save padded.
    old = tmp_path / "unpadded.dmxt"
    _write_unpadded_archive(old, dict(pinned_set().entries), {"model_id": "pinned"})
    assert hashlib.sha256(old.read_bytes()).hexdigest() == (
        "52bead1a521315845bdc5b579109bf4562d1d8fabfb93f773f3eec26f553e4dd"
    )
    save_archive(load_archive(old), tmp_path / "resaved.dmxt")
    assert (tmp_path / "resaved.dmxt").read_bytes() == path.read_bytes()


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
    try:
        load_archive(path)
    except ArchiveError:
        pass


def test_reported_malformed_headers_are_archive_errors(tmp_path):
    path = tmp_path / "bad.dmxt"
    entry = {"name": "w", "shape": [1], "offset": 0, "length": 8}
    payload = np.zeros(1).tobytes()
    for doc, message in [
        ({"tensors": [entry], "metadata": [1]}, "corrupt header"),
        ({"tensors": [{**entry, "shape": [2**70]}], "metadata": {}}, "too large"),
        ({"tensors": [{**entry, "shape": [2**70, 0], "length": 0}], "metadata": {}}, "too large"),
        ({"tensors": [{**entry, "name": ["w"]}], "metadata": {}}, "not a string"),
    ]:
        _write_archive(path, doc, payload)
        with pytest.raises(ArchiveError, match=message):
            load_archive(path)


# --- container bookkeeping ----------------------------------------------------------


def test_copy_is_independent_and_can_take_a_new_model_id():
    p = small_set("orig")
    same = p.copy()
    renamed = p.copy(model_id="other")
    assert (same.model_id, renamed.model_id) == ("orig", "other")
    for copied in (same, renamed):
        assert_same_values(copied, p)
        for name in p.names():
            assert not np.shares_memory(copied.entries[name], p.entries[name])
            assert not copied.entries[name].flags.writeable


def test_num_values_counts_every_element_of_every_shape():
    p = ParameterSet.from_arrays(
        {"m": np.zeros((3, 4)), "s": np.float64(1.0), "e": np.zeros((2, 0)), "v": np.zeros(5)}
    )
    assert p.num_values() == 12 + 1 + 0 + 5


@pytest.mark.parametrize(
    "changed",
    [
        {"w": np.array([1.0, 2.5]), "b": np.array([0.5])},  # a value
        {"v": np.array([1.0, 2.0]), "b": np.array([0.5])},  # a name
        {"w": np.array([[1.0, 2.0]]), "b": np.array([0.5])},  # a shape
    ],
    ids=["value", "name", "shape"],
)
def test_checksum_tracks_values_names_and_shapes(tmp_path, changed):
    def sha256(params, name):
        save_archive(params, tmp_path / name)
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    p = small_set()
    assert sha256(p, "p.dmxt") == sha256(p.copy(), "copy.dmxt")
    assert sha256(ParameterSet.from_arrays(changed, model_id="m"), "changed.dmxt") != sha256(p, "p.dmxt")


# --- archive format: every rejected layout -----------------------------------------


def test_metadata_values_are_stored_as_strings(tmp_path):
    path = tmp_path / "p.dmxt"
    save_archive(small_set(), path, metadata={"steps": 3, 4: 0.5})
    assert read_header(path).metadata == {"model_id": "m", "steps": "3", "4": "0.5"}


def _good_entry(name="w", offset=0):
    return {"name": name, "shape": [1], "offset": offset, "length": 8}


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"DMXT\x01\x00", "shorter than preamble"),
        (struct.pack("<4sIQ", b"DMXT", 1, 1000) + b"{}", "header length exceeds file size"),
    ],
    ids=["short_preamble", "header_past_end"],
)
def test_truncated_preamble_or_header_rejected(tmp_path, blob, message):
    path = tmp_path / "bad.dmxt"
    path.write_bytes(blob)
    with pytest.raises(ArchiveError, match=message):
        load_archive(path)


@pytest.mark.parametrize(
    "tensors, payload_values, message",
    [
        ([_good_entry(), _good_entry(offset=8)], 2, "duplicate tensor name"),
        ([{"name": "w", "shape": [-1], "offset": 0, "length": -8}], 0, "negative dimension"),
        ([_good_entry()], 2, "payload larger than header declares"),
    ],
    ids=["duplicate_name", "negative_dimension", "trailing_payload"],
)
def test_malformed_index_rejected(tmp_path, tensors, payload_values, message):
    path = tmp_path / "bad.dmxt"
    _write_archive(path, {"tensors": tensors, "metadata": {}}, np.zeros(payload_values).tobytes())
    with pytest.raises(ArchiveError, match=message):
        load_archive(path)


def test_non_finite_payload_is_an_archive_error_found_only_on_load(tmp_path):
    path = tmp_path / "nan.dmxt"
    _write_archive(path, {"tensors": [_good_entry()], "metadata": {}}, np.array([np.nan]).tobytes())
    assert read_header(path).index == [("w", (1,), 0, 8)]
    with pytest.raises(ArchiveError, match="invalid archive .*non-finite"):
        load_archive(path)


def test_missing_archive_is_an_archive_error_naming_the_path(tmp_path):
    with pytest.raises(ArchiveError, match="absent.dmxt"):
        load_archive(tmp_path / "absent.dmxt")


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"XXXX" + bytes(12), "corrupt header: bad magic"),
        (struct.pack("<4sIQ", b"DMXT", 7, 2) + b"{}", "unsupported format version 7"),
        (struct.pack("<4sIQ", b"DMXT", 1, 2) + b"[]", "corrupt header: "),
        (struct.pack("<4sIQ", b"DMXT", 1, 33) + b'{"tensors": [], "metadata": {}} \x00', "corrupt header: "),
    ],
    ids=["magic", "version", "json", "nul_padding"],
)
def test_every_header_error_names_the_archive(tmp_path, blob, message):
    path = tmp_path / "bad.dmxt"
    path.write_bytes(blob)
    with pytest.raises(ArchiveError) as info:
        load_archive(path)
    assert str(info.value).startswith(f"invalid archive {path}: {message}")


def test_a_truncated_payload_names_the_archive(tmp_path):
    path = tmp_path / "short.dmxt"
    save_archive(small_set(), path)
    header_end = len(path.read_bytes()) - 24
    with open(path, "r+b") as fh:
        fh.truncate(header_end + 16)
    with pytest.raises(ArchiveError, match=f"^invalid archive {re.escape(str(path))}: truncated payload"):
        load_archive(path)


def test_a_mapping_that_fails_is_an_archive_error_naming_the_path(tmp_path, monkeypatch):
    path = tmp_path / "p.dmxt"
    save_archive(small_set(), path)

    def fails(*args, **kwargs):
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(mmap, "mmap", fails)
    with pytest.raises(ArchiveError, match=f"^cannot read archive {re.escape(str(path))}: .*Too many open files"):
        load_archive(path)


def test_a_payload_truncated_after_validation_is_an_archive_error(tmp_path, monkeypatch):
    path = tmp_path / "p.dmxt"
    save_archive(small_set(), path)
    real_mmap = mmap.mmap

    def shrinks_first(fileno, length, **kwargs):
        os.truncate(path, length - 8)
        return real_mmap(fileno, length, **kwargs)

    monkeypatch.setattr(mmap, "mmap", shrinks_first)
    with pytest.raises(ArchiveError, match=f"^invalid archive {re.escape(str(path))}: truncated payload"):
        load_archive(path)


SHAPES = st.lists(st.integers(0, 3), max_size=3).map(tuple)


@settings(max_examples=100, deadline=None)
@given(
    shapes=st.dictionaries(st.text(min_size=1, max_size=4), SHAPES, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    model_id=st.text(max_size=6),
)
def test_any_finite_parameter_set_roundtrips_bit_exactly(tmp_path_factory, shapes, seed, model_id):
    rng = np.random.default_rng(seed)
    arrays = {name: rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300) for name, shape in shapes.items()}
    params = ParameterSet.from_arrays(arrays, model_id=model_id)
    path = tmp_path_factory.mktemp("roundtrip") / "p.dmxt"
    save_archive(params, path)
    loaded = load_archive(path)
    assert loaded.model_id == model_id
    assert loaded.schema() == params.schema()
    for name in params.names():
        assert loaded.entries[name].tobytes() == params.entries[name].tobytes()
