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
are views of the map, read straight from the page cache. By default the
finiteness check that builds the set is the first pass over their values;
``demix merge`` skips it and reads each value once, in the merge kernel,
whose check on every merged block covers the inputs under it.

A parameter set is written in one pass, in order. A merge plan's payload is
written with ``os.pwrite`` at each block's own offset, into a temp file set to
its final size, so its two halves can be written apart: the first by the
calling process and the second, where it can fork, by a child that computes
it at the same time (:func:`save_archive`). The bytes are the same either way.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
import pickle
import re
import struct
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import forking
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

    One exception skips the check: ``load_archive(path, check_values=False)``,
    which only ``demix merge`` calls. It checks those values in the merged
    blocks instead (:meth:`demix.merge_engine.MergePlan.blocks`), and loads
    the archives again with the check when a block is not finite.
    """

    entries: Mapping[str, np.ndarray]
    model_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "entries", _read_only(self.entries, check_values=True))

    @classmethod
    def _unchecked(cls, entries: Mapping[str, np.ndarray], model_id: str) -> "ParameterSet":
        """The set of ``entries`` built without the finiteness pass."""
        params = object.__new__(cls)
        object.__setattr__(params, "entries", _read_only(entries, check_values=False))
        object.__setattr__(params, "model_id", model_id)
        return params

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


def _read_only(entries: Mapping[str, np.ndarray], check_values: bool) -> Mapping[str, np.ndarray]:
    """Read-only float64 views of ``entries``, checked finite unless
    ``check_values`` is false."""
    views = {}
    for name, values in entries.items():
        arr = np.asarray(values, dtype=np.float64).view()
        if check_values and not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"tensor {name!r}: non-finite value")
        arr.flags.writeable = False
        views[name] = arr
    return MappingProxyType(views)


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

    ``params`` is a :class:`ParameterSet` or a plan that
    :func:`demix.merge_engine.merge` returns. The header comes from the
    schema. A set's arrays are written in turn. A plan's merged blocks are
    each computed in a cache-sized scratch buffer and checked finite just
    before they are written, so a merged model goes to disk without being
    held whole. An error part-way, such as a block that is not finite, leaves
    any file at ``path`` as it was.

    A plan of two or more blocks is written in two halves at their own file
    offsets (``os.pwrite``), into a temp file set to its final size: where
    :func:`demix.forking.can_fork` holds, a forked child computes and writes
    the second half while this process writes the first, and otherwise, or if
    the fork fails, this process writes both in turn. The first error in
    archive order is raised, such as a non-finite block: this process's half
    is checked first, then the child's, whose error the child sends back, so
    an error is the same whichever process meets it. A child that dies is an
    :class:`ArchiveError`. The child is reaped before the file is renamed
    or an error is raised.
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
            if isinstance(params, ParameterSet):
                for block in params.blocks():
                    fh.write(_little_endian(block))
            else:
                fh.truncate(_PREAMBLE.size + len(header) + offset)  # flushes the header first
                _write_halves(fh.fileno(), params, _PREAMBLE.size + len(header), path)
    except OSError as exc:
        raise ArchiveError(f"cannot write archive {path}: {exc}") from exc


def _little_endian(block: np.ndarray) -> np.ndarray:
    # C-contiguous little-endian float64: for the arrays demix builds, the
    # block itself, so this copies nothing.
    return np.ascontiguousarray(block, dtype="<f8")


def _write_halves(fd: int, plan, start: int, path) -> None:
    """Write the payload of ``plan`` to ``fd`` from file offset ``start``, the
    first half of its blocks from this process and the second from a forked
    child where one can run (see :func:`save_archive`)."""
    starts = plan.block_starts()
    half = (len(starts) + 1) // 2

    def second_half() -> bytes:
        error = None
        try:
            _pwrite_blocks(fd, plan.blocks(half), start + 8 * starts[half])
        except Exception as exc:
            error = exc
        return pickle.dumps(error)

    child = forking.fork(second_half) if half < len(starts) and forking.can_fork() else None
    try:
        _pwrite_blocks(fd, plan.blocks(0, half if child else None), start)
    finally:
        if child:
            data, ended = forking.join(child)
    if child and ended:
        raise ArchiveError(f"cannot write archive {path}: the process writing its second half {ended}")
    if child and (error := pickle.loads(data)) is not None:
        raise error


def _pwrite_blocks(fd: int, blocks, offset: int) -> None:
    """Write ``blocks`` one after another to ``fd`` from file offset ``offset``."""
    for block in blocks:
        data = memoryview(_little_endian(block)).cast("B")
        while data:
            written = os.pwrite(fd, data, offset)
            data, offset = data[written:], offset + written


def load_archive(path, *, check_values: bool = True) -> ParameterSet:
    """Map an archive read-only, validating magic, version, index and payload
    bounds, and check that every value is finite. Every error names ``path``.

    With ``check_values=False`` no value is read: the header, index and
    bounds are checked as always, and the set is built without the finiteness
    pass. Only ``demix merge`` passes it; a non-finite value then shows in
    the merged block it reaches (see :class:`ParameterSet`).

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
            index, metadata = _read_header(fh)
            start = fh.tell()
            size = start + sum(length for *_, length in index)
            try:
                # Mapping the validated size fails if the file has shrunk since.
                buffer = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ)
            except ValueError:
                raise ArchiveError("truncated payload") from None
        entries = {
            name: np.frombuffer(buffer, "<f8", length // 8, start + offset).reshape(shape)
            for name, shape, offset, length in index
        }
        model_id = metadata.get("model_id", "")
        if not check_values:
            return ParameterSet._unchecked(entries, model_id)
        return ParameterSet(entries=entries, model_id=model_id)
    except OSError as exc:
        raise ArchiveError(f"cannot read archive {path}: {exc}") from exc
    except (ArchiveError, ValidationError) as exc:
        raise ArchiveError(f"invalid archive {path}: {exc}") from exc


def _read_header(fh) -> tuple[list[tuple[str, tuple[int, ...], int, int]], dict[str, str]]:
    """Read the preamble and header from ``fh``, leaving it at the payload start,
    and check the index against the payload size the file actually has.
    Returns the index, one ``(name, shape, offset, length)`` per tensor in
    payload order, and the string metadata."""
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
    expected = 0
    seen = set()
    for name, shape, offset, length in index:
        if name in seen:
            raise ArchiveError(f"duplicate tensor name {name!r}")
        seen.add(name)
        if any(s < 0 for s in shape):
            raise ArchiveError(f"tensor {name!r}: negative dimension in header")
        # numpy's own limit, which binds even when another dimension is 0.
        if math.prod(s for s in shape if s) * 8 > sys.maxsize:
            raise ArchiveError(f"tensor {name!r}: dimensions too large in header")
        if offset != expected:
            raise ArchiveError(f"tensor {name!r}: offsets must be ascending and non-overlapping")
        if math.prod(shape) * 8 != length:
            raise ArchiveError(f"tensor {name!r}: shape/length mismatch in header")
        expected = offset + length
    if expected > file_size - header_end:
        raise ArchiveError("truncated payload")
    if expected < file_size - header_end:
        raise ArchiveError("payload larger than header declares")
    return index, metadata
