"""The model-parameter container and a bit-exact binary archive format.

A parameter set holds each tensor as a float64 array in its own shape; that
array is the only record of the shape.

Archive layout (extension ``.dmxt``): magic ``DMXT``, little-endian u32
format version, little-endian u64 header length, UTF-8 JSON header (tensor
index plus free-form string metadata), then the raw payload of little-endian
float64 values in C order. Tensors are stored in lexicographic name order and
offsets in the index are relative to the payload start, so files are
deterministic for a given parameter set. :func:`save_archive` pads the JSON
with spaces, which the header length counts, so that the payload starts on a
``PAYLOAD_ALIGN``-byte boundary of the file: a mapped payload then starts on
a cache line, and every value in it is 8-byte aligned. Readers take the header
length as given, so archives written without the padding still load.

Loading maps the file read-only instead of copying it: a loaded set's arrays
are views of the map, read straight from the page cache, and the finiteness
check that builds the set is the first pass over their values.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
import re
import struct
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import ArchiveError, NonFiniteError, ValidationError

MAGIC = b"DMXT"
FORMAT_VERSION = 1
_PREAMBLE = struct.Struct("<4sIQ")
# save_archive starts every payload at a file offset that is a multiple of this.
PAYLOAD_ALIGN = 64
# The name of an atomic_write temp file: the target's name and a pid.
_TEMP_NAME = re.compile(r"(.+)\.[0-9]+\.tmp")


@dataclass(frozen=True)
class ParameterSet:
    """A model's parameters: named float64 tensors, each an array in its own
    shape; that array is the only record of the shape. NaN and Inf are
    rejected on construction, and what was checked stays as it was: the set,
    its mapping and its arrays are read-only, so nothing checks them again.
    The arrays are views of the ones passed in, which stay writable to their
    owner; demix never writes into an array it has passed in. A loaded set's
    arrays are views of its archive's read-only map (see :func:`load_archive`).
    """

    entries: Mapping[str, np.ndarray]
    model_id: str = ""

    def __post_init__(self):
        entries = {}
        for name, values in self.entries.items():
            arr = np.asarray(values, dtype=np.float64).view()
            if not np.all(np.isfinite(arr)):
                raise NonFiniteError(f"tensor {name!r}: non-finite value")
            arr.flags.writeable = False
            entries[name] = arr
        object.__setattr__(self, "entries", MappingProxyType(entries))

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], model_id: str = "") -> "ParameterSet":
        return cls(entries=arrays, model_id=model_id)

    def names(self) -> list[str]:
        return sorted(self.entries)

    def schema(self) -> dict[str, tuple[int, ...]]:
        return {name: self.entries[name].shape for name in self.names()}

    def num_values(self) -> int:
        return sum(arr.size for arr in self.entries.values())

    def blocks(self):
        """The set's values in archive order: each tensor's array, by name."""
        return (self.entries[name] for name in self.names())

    def copy(self, model_id: str | None = None) -> "ParameterSet":
        return ParameterSet(
            entries={k: v.copy() for k, v in self.entries.items()},
            model_id=self.model_id if model_id is None else model_id,
        )


def _payload(arr: np.ndarray) -> np.ndarray:
    """``arr``'s values as a C-contiguous little-endian float64 buffer: the
    array itself when it already is one, as the arrays demix builds are."""
    return np.ascontiguousarray(arr, dtype="<f8")


@dataclass
class ArchiveHeader:
    """Parsed archive header: tensor index and string metadata."""

    index: list[tuple[str, tuple[int, ...], int, int]]  # (name, shape, offset, length)
    metadata: dict[str, str] = field(default_factory=dict)

    def validate(self, payload_size: int) -> None:
        expected = 0
        seen = set()
        for name, shape, offset, length in self.index:
            if name in seen:
                raise ArchiveError(f"duplicate tensor name {name!r}")
            seen.add(name)
            if any(s < 0 for s in shape):
                raise ArchiveError(f"tensor {name!r}: negative dimension in header")
            # numpy's own limit, which binds even when another dimension is 0.
            if math.prod(s for s in shape if s) * 8 > sys.maxsize:
                raise ArchiveError(f"tensor {name!r}: dimensions too large in header")
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


@contextlib.contextmanager
def atomic_write(path):
    """Open a temp file ``<name>.<pid>.tmp`` beside ``path`` for binary
    writing and rename it over ``path`` once the block completes. A write
    that fails or is killed part-way leaves the previous file whole; a failed
    one also removes the temp file, and :func:`remove_leftover_temps` removes
    what a killed one left."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def remove_leftover_temps(directory: Path, names) -> None:
    """Delete the temp files that killed :func:`atomic_write` calls left in
    ``directory`` for the files ``names``. Call it only while no other
    process can be writing them."""
    names = set(names)
    for name in os.listdir(directory):
        match = _TEMP_NAME.fullmatch(name)
        if match and match.group(1) in names:
            os.unlink(Path(directory) / name)


def save_archive(params: ParameterSet, path, metadata: dict[str, str] | None = None) -> None:
    """Write ``params`` to ``path`` so that :func:`load_archive` round-trips bit-exactly.

    ``params`` is a :class:`ParameterSet` or anything with its ``model_id``,
    ``schema()`` and ``blocks()``, such as the plan that
    :func:`demix.merge_engine.merge` returns. The header comes from the
    schema; the payload is whatever ``blocks()`` yields, written in turn: a
    set's arrays, or a plan's merged blocks, each computed in a cache-sized
    scratch buffer and checked finite just before it is written, so a merged
    model goes to disk without being held whole. An error part-way, such as a
    block that is not finite, leaves any file at ``path`` as it was.
    """
    meta = {"model_id": params.model_id}
    if metadata:
        meta.update({str(k): str(v) for k, v in metadata.items()})
    index = []
    offset = 0
    for name, shape in params.schema().items():
        length = math.prod(shape) * 8
        index.append({"name": name, "shape": list(shape), "offset": offset, "length": length})
        offset += length
    header = json.dumps({"tensors": index, "metadata": meta}, sort_keys=True).encode("utf-8")
    header += b" " * (-(_PREAMBLE.size + len(header)) % PAYLOAD_ALIGN)
    try:
        with atomic_write(path) as fh:
            fh.write(_PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(header)))
            fh.write(header)
            for block in params.blocks():
                fh.write(_payload(block))
    except OSError as exc:
        raise ArchiveError(f"cannot write archive {path}: {exc}") from exc


def load_archive(path) -> ParameterSet:
    """Map an archive read-only, validating magic, version, index and payload
    bounds. Every error names ``path``.

    The set's arrays are read-only views of the map, not copies. Their values
    sit at the file's own offsets. An archive that :func:`save_archive` wrote
    starts its payload on a ``PAYLOAD_ALIGN``-byte boundary; one written
    without the padding starts it wherever the header ends, and numpy reads
    such unaligned values exactly, if a little more slowly. The map lives as
    long as any of the arrays, and on Python before 3.13 it holds a duplicate
    of the file's descriptor as long.

    demix replaces an archive only by renaming a new file over it
    (:func:`atomic_write`), which leaves the mapped file's pages as they were,
    so a loaded set keeps its values. A program that truncates a mapped file
    in place can make a later read of the set fail with SIGBUS.
    """
    try:
        with open(path, "rb") as fh:
            header = _read_header(fh)
            start = fh.tell()
            size = start + sum(length for *_, length in header.index)
            try:
                # Mapping the validated size fails if the file has shrunk since.
                buffer = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ)
            except ValueError:
                raise ArchiveError("truncated payload") from None
        entries = {
            name: np.frombuffer(buffer, "<f8", length // 8, start + offset).reshape(shape)
            for name, shape, offset, length in header.index
        }
        return ParameterSet(entries=entries, model_id=header.metadata.get("model_id", ""))
    except OSError as exc:
        raise ArchiveError(f"cannot read archive {path}: {exc}") from exc
    except (ArchiveError, ValidationError) as exc:
        raise ArchiveError(f"invalid archive {path}: {exc}") from exc


def _read_header(fh) -> ArchiveHeader:
    """Read the preamble and header from ``fh``, leaving it at the payload start,
    and check the index against the payload size the file actually has."""
    file_size = os.fstat(fh.fileno()).st_size
    preamble = fh.read(_PREAMBLE.size)
    if len(preamble) < _PREAMBLE.size:
        raise ArchiveError("corrupt header: file shorter than preamble")
    magic, version, header_len = _PREAMBLE.unpack(preamble)
    if magic != MAGIC:
        raise ArchiveError(f"corrupt header: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise ArchiveError(f"unsupported format version {version}")
    header_end = _PREAMBLE.size + header_len
    if file_size < header_end:
        raise ArchiveError("corrupt header: declared header length exceeds file size")
    try:
        doc = json.loads(fh.read(header_len).decode("utf-8"))
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
    header = ArchiveHeader(index=index, metadata=metadata)
    header.validate(file_size - header_end)
    return header
