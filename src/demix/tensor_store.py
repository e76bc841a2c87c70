"""Model-parameter containers and a bit-exact binary archive format.

Archive layout (extension ``.dmxt``): magic ``DMXT``, little-endian u32
format version, little-endian u64 header length, UTF-8 JSON header (tensor
index plus free-form string metadata), then the raw payload of little-endian
float64 values. Tensors are stored in lexicographic name order and offsets in
the index are relative to the payload start, so files are deterministic for a
given parameter set and support partial reads by offset.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ArchiveError, NonFiniteError, SchemaMismatchError, ValidationError

MAGIC = b"DMXT"
FORMAT_VERSION = 1
_PREAMBLE = struct.Struct("<4sIQ")


def _as_flat_f64(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    return arr.reshape(-1)


@dataclass
class ParameterSet:
    """Named flat float64 tensors plus per-tensor shape metadata.

    Immutable by convention after construction; all arithmetic helpers return
    new instances. ``model_id`` identifies the set when deltas are taken
    against it.
    """

    entries: dict[str, np.ndarray]
    shapes: dict[str, tuple[int, ...]]
    model_id: str = ""

    def __post_init__(self):
        entries = {}
        shapes = {}
        for name in self.entries:
            arr = _as_flat_f64(self.entries[name])
            shape = tuple(int(s) for s in self.shapes.get(name, (arr.size,)))
            if any(s < 0 for s in shape):
                raise ValidationError(f"tensor {name!r}: negative dimension in shape {shape}")
            if math.prod(shape) != arr.size:
                raise ValidationError(
                    f"tensor {name!r}: shape/length mismatch "
                    f"(shape {shape} vs {arr.size} values)"
                )
            if not np.all(np.isfinite(arr)):
                raise NonFiniteError(f"tensor {name!r}: non-finite value")
            entries[name] = arr
            shapes[name] = shape
        if set(self.shapes) - set(self.entries):
            raise ValidationError("shape metadata for unknown tensor")
        self.entries = entries
        self.shapes = shapes

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], model_id: str = "") -> "ParameterSet":
        """Build from (possibly multi-dimensional) arrays, recording shapes."""
        entries = {}
        shapes = {}
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype=np.float64)
            entries[name] = arr.reshape(-1)
            shapes[name] = tuple(int(s) for s in arr.shape)
        return cls(entries=entries, shapes=shapes, model_id=model_id)

    def names(self) -> list[str]:
        return sorted(self.entries)

    def schema(self) -> dict[str, tuple[int, ...]]:
        return {name: self.shapes[name] for name in self.names()}

    def tensor(self, name: str) -> np.ndarray:
        """The named tensor reshaped to its declared shape."""
        return self.entries[name].reshape(self.shapes[name])

    def num_values(self) -> int:
        return sum(arr.size for arr in self.entries.values())

    def copy(self, model_id: str | None = None) -> "ParameterSet":
        return ParameterSet(
            entries={k: v.copy() for k, v in self.entries.items()},
            shapes=dict(self.shapes),
            model_id=self.model_id if model_id is None else model_id,
        )

    def checksum(self) -> str:
        """CRC32 over names, shapes and raw little-endian payload bytes."""
        crc = 0
        for name in self.names():
            crc = zlib.crc32(name.encode("utf-8"), crc)
            crc = zlib.crc32(repr(self.shapes[name]).encode("ascii"), crc)
            crc = zlib.crc32(self.entries[name].astype("<f8").tobytes(), crc)
        return f"{crc:08x}"


@dataclass
class WeightDelta:
    """Per-tensor difference between a trained model and its base."""

    entries: dict[str, np.ndarray]
    shapes: dict[str, tuple[int, ...]]
    base_id: str = ""

    def __post_init__(self):
        probe = ParameterSet(entries=self.entries, shapes=self.shapes)
        self.entries = probe.entries
        self.shapes = probe.shapes

    def names(self) -> list[str]:
        return sorted(self.entries)

    def schema(self) -> dict[str, tuple[int, ...]]:
        return {name: self.shapes[name] for name in self.names()}


@dataclass
class ArchiveHeader:
    """Parsed archive header: version, tensor index and string metadata."""

    format_version: int
    index: list[tuple[str, tuple[int, ...], int, int]]  # (name, shape, offset, length)
    metadata: dict[str, str] = field(default_factory=dict)

    def validate(self, payload_size: int) -> None:
        expected = 0
        for name, shape, offset, length in self.index:
            if any(s < 0 for s in shape):
                raise ArchiveError(f"tensor {name!r}: negative dimension in header")
            if offset != expected:
                raise ArchiveError(
                    f"tensor {name!r}: offsets must be ascending and non-overlapping"
                )
            if math.prod(shape) * 8 != length:
                raise ArchiveError(f"tensor {name!r}: shape/length mismatch in header")
            expected = offset + length
        if expected > payload_size:
            raise ArchiveError("truncated payload")
        if expected < payload_size:
            raise ArchiveError("payload larger than header declares")


def _require_same_schema(a, b, what: str) -> None:
    if a.schema() != b.schema():
        raise SchemaMismatchError(f"{what}: tensor names/shapes differ")


def save_archive(params: ParameterSet, path, metadata: dict[str, str] | None = None) -> None:
    """Write ``params`` to ``path`` so that :func:`load_archive` round-trips bit-exactly."""
    for name, arr in params.entries.items():
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"tensor {name!r}: non-finite value")
    meta = {"model_id": params.model_id}
    if metadata:
        meta.update({str(k): str(v) for k, v in metadata.items()})
    index = []
    offset = 0
    names = params.names()
    for name in names:
        length = params.entries[name].size * 8
        index.append(
            {"name": name, "shape": list(params.shapes[name]), "offset": offset, "length": length}
        )
        offset += length
    header = json.dumps({"tensors": index, "metadata": meta}, sort_keys=True).encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(_PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(header)))
            fh.write(header)
            for name in names:
                fh.write(params.entries[name].astype("<f8").tobytes())
    except OSError as exc:
        raise ArchiveError(f"cannot write archive {path}: {exc}") from exc


def load_archive(path) -> ParameterSet:
    """Read an archive, validating magic, version, index and payload bounds."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ArchiveError(f"cannot read archive {path}: {exc}") from exc
    header, payload = _parse_archive(blob)
    entries = {}
    shapes = {}
    for name, shape, offset, length in header.index:
        if name in entries:
            raise ArchiveError(f"duplicate tensor name {name!r}")
        raw = payload[offset : offset + length]
        entries[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        shapes[name] = shape
    try:
        return ParameterSet(
            entries=entries, shapes=shapes, model_id=header.metadata.get("model_id", "")
        )
    except ValidationError as exc:
        raise ArchiveError(f"invalid archive {path}: {exc}") from exc


def read_header(path) -> ArchiveHeader:
    """Parse and validate only the archive header (used by ``demix tensor inspect``)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ArchiveError(f"cannot read archive {path}: {exc}") from exc
    header, _ = _parse_archive(blob)
    return header


def _parse_archive(blob: bytes) -> tuple[ArchiveHeader, bytes]:
    if len(blob) < _PREAMBLE.size:
        raise ArchiveError("corrupt header: file shorter than preamble")
    magic, version, header_len = _PREAMBLE.unpack_from(blob)
    if magic != MAGIC:
        raise ArchiveError(f"corrupt header: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise ArchiveError(f"unsupported format version {version}")
    header_end = _PREAMBLE.size + header_len
    if len(blob) < header_end:
        raise ArchiveError("corrupt header: declared header length exceeds file size")
    try:
        doc = json.loads(blob[_PREAMBLE.size : header_end].decode("utf-8"))
        index = [
            (t["name"], tuple(int(s) for s in t["shape"]), int(t["offset"]), int(t["length"]))
            for t in doc["tensors"]
        ]
        metadata = {str(k): str(v) for k, v in doc.get("metadata", {}).items()}
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError, RecursionError) as exc:
        raise ArchiveError(f"corrupt header: {exc}") from exc
    for name, *_ in index:
        if not isinstance(name, str):
            raise ArchiveError(f"corrupt header: tensor name {name!r} is not a string")
    header = ArchiveHeader(format_version=version, index=index, metadata=metadata)
    payload = blob[header_end:]
    header.validate(len(payload))
    return header, payload


def compute_delta(trained: ParameterSet, base: ParameterSet) -> WeightDelta:
    """Elementwise ``trained - base``, tagged with the base's identity."""
    _require_same_schema(trained, base, "compute_delta")
    entries = {name: trained.entries[name] - base.entries[name] for name in base.entries}
    return WeightDelta(entries=entries, shapes=dict(base.shapes), base_id=base.model_id)


def apply_delta(base: ParameterSet, delta: WeightDelta, model_id: str = "") -> ParameterSet:
    """Elementwise ``base + delta``; exact inverse of :func:`compute_delta`."""
    if delta.base_id != base.model_id:
        raise SchemaMismatchError(
            f"apply_delta: delta was taken against {delta.base_id!r}, not {base.model_id!r}"
        )
    _require_same_schema(delta, base, "apply_delta")
    entries = {name: base.entries[name] + delta.entries[name] for name in base.entries}
    return ParameterSet(entries=entries, shapes=dict(base.shapes), model_id=model_id)


def delta_magnitude(trained: ParameterSet, base: ParameterSet) -> float:
    """Normalized total parameter movement, a single scalar over all tensors.

    ``sum|trained - base| / (sum|trained| + sum|base|)``; always in [0, 1],
    zero when nothing moved. Values well below 1 indicate the small-update
    regime in which delta arithmetic is a faithful proxy for training.
    """
    _require_same_schema(trained, base, "delta_magnitude")
    moved = 0.0
    scale = 0.0
    for name in base.entries:
        t = trained.entries[name]
        b = base.entries[name]
        moved += float(np.sum(np.abs(t - b)))
        scale += float(np.sum(np.abs(t)) + np.sum(np.abs(b)))
    if scale == 0.0:
        raise ValidationError("degenerate δ: both parameter sets are all-zero")
    return moved / scale
