"""Weighted model merging: the proxy constructor.

A mixture proxy is the convex combination of the component models'
parameters at the mixture weights, tensor by tensor (task arithmetic,
Ilharco et al., arXiv:2212.04089). On the simplex that equals adding the
weighted component updates to a shared base, so no base is needed.

:func:`merge` checks its inputs and returns a :class:`MergePlan`, which
computes the merge only as it is read, in blocks of :data:`BLOCK` values, with
one kernel, :func:`merge_block`. :meth:`MergePlan.parameters` accumulates
each block straight into the merged tensor's fresh array. :meth:`MergePlan.blocks`,
which :func:`~demix.tensor_store.save_archive` reads, computes each block in a
scratch buffer that stays in cache and checks it finite before handing it on,
so ``demix merge`` writes the merged model to its archive without ever holding
it. That check also covers the inputs, which ``demix merge`` loads unchecked:
with finite weights, a merged value is finite only where every input value
under it is, because NaN propagates, ``0 * inf`` is NaN, an infinite component
value leaves an infinite or NaN sum, and an infinite anchor value gives
``inf - inf`` (NaN) against any component, or itself when it is the only one.
Neither allocates a full-size temporary. Each block runs the same IEEE
operations on each value, in the same order, as the whole-tensor formula
``ref + sum_i w_i * (c_i - ref)`` (accumulator set to 0, then one subtract,
multiply and add per component). A value's result depends only on its own
inputs, never on its neighbours, so the output is the same bit for bit at any
block size. For the same reason :meth:`MergePlan.blocks` computes any range of
blocks without the ones before it, and :meth:`MergePlan.block_starts` says
where each lands in the payload: ``save_archive`` has a forked child compute
and write the second half of the blocks while the caller writes the first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, SchemaMismatchError, ValidationError
from .tensor_store import ParameterSet

RATIO_SUM_TOLERANCE = 1e-9
# Values per block of the merge kernel: scratch buffers of 256 KB.
BLOCK = 1 << 15


@dataclass
class MixtureRatio:
    """Nonnegative weights on the probability simplex, one per candidate dataset."""

    weights: np.ndarray
    candidate_ids: list[str]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        ids = [str(c) for c in self.candidate_ids]
        if w.size != len(ids) or w.size == 0:
            raise ValidationError("mixture ratio: weights and candidate_ids must align")
        if len(set(ids)) != len(ids):
            raise ValidationError("mixture ratio: duplicate candidate ids")
        if not np.all(np.isfinite(w)):
            raise ValidationError("mixture ratio: non-finite weight")
        if np.any(w < 0.0):
            raise ValidationError("mixture ratio: negative weight")
        total = float(w.sum())
        if abs(total - 1.0) > RATIO_SUM_TOLERANCE:
            raise ValidationError(f"mixture ratio: weights sum to {total!r}, not 1")
        self.weights = w / total
        self.candidate_ids = ids

    def __len__(self) -> int:
        return self.weights.size

    def as_dict(self) -> dict[str, float]:
        return {c: float(w) for c, w in zip(self.candidate_ids, self.weights)}


def merge_block(
    ref: np.ndarray, others: list[tuple[float, np.ndarray]], out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """The merge kernel: ``ref + sum_i w_i * (c_i - ref)`` for one block,
    written into ``out`` and returned. ``ref`` holds the anchor's values of the
    block, ``others`` the ``(w_i, c_i)`` of the other components, and ``tmp``
    is scratch of the block's length. ``out`` is the accumulator, set to 0,
    then one subtract, multiply and add per component, in order; an overflow
    is left in ``out`` for the caller's finiteness check to report."""
    with np.errstate(over="ignore", invalid="ignore"):
        out.fill(0.0)
        for w, c in others:
            np.subtract(c, ref, out=tmp)
            np.multiply(w, tmp, out=tmp)
            np.add(out, tmp, out=out)
        np.add(ref, out, out=out)
    return out


@dataclass(frozen=True)
class MergePlan:
    """The merge of components at a ratio, computed only as it is read.

    :meth:`parameters` fills the merged model in memory; :meth:`blocks`
    yields it block by block, or a range of its blocks, which is how
    :func:`~demix.tensor_store.save_archive` writes it without ever holding
    it. Both run :func:`merge_block` on the same blocks, so they give the
    same bits.
    """

    anchor: ParameterSet
    others: tuple[tuple[float, ParameterSet], ...]
    model_id: str = ""

    def schema(self) -> dict[str, tuple[int, ...]]:
        return self.anchor.schema()

    def num_values(self) -> int:
        return self.anchor.num_values()

    def _scratch(self) -> np.ndarray:
        # Small models need smaller buffers, which cost less to allocate.
        return np.empty(min(BLOCK, max((a.size for a in self.anchor.entries.values()), default=0)))

    def _spans(self) -> list[tuple[str, int, int]]:
        """Each block in archive order (tensors by name): its tensor's name and
        where it starts in that tensor and in the merged payload, in values."""
        spans, offset = [], 0
        for name in self.anchor.names():
            size = self.anchor.entries[name].size
            spans += [(name, start, offset + start) for start in range(0, size, BLOCK)]
            offset += size
        return spans

    def block_starts(self) -> list[int]:
        """Where each block of :meth:`blocks` starts in the merged payload, in
        values; one entry per block."""
        return [at for _, _, at in self._spans()]

    def _inputs(self, first: int = 0, last: int | None = None):
        """The inputs of blocks ``first`` to ``last`` (exclusive; None for the
        end): each block's tensor, its start in that tensor, the anchor's
        values and the ``(w_i, c_i)`` values of the other components. No block
        depends on those before it, so any range starts where it is asked to."""
        for name, spans in itertools.groupby(self._spans()[first:last], key=lambda s: s[0]):
            ref = self.anchor.entries[name].reshape(-1)
            flats = [(w, comp.entries[name].reshape(-1)) for w, comp in self.others]
            for _, start, _ in spans:
                stop = start + BLOCK
                yield name, start, ref[start:stop], [(w, c[start:stop]) for w, c in flats]

    def parameters(self) -> ParameterSet:
        """The merged model, one fresh array per tensor. A sum that overflows
        is reported by ParameterSet as a NonFiniteError."""
        tmp = self._scratch()
        # C order whatever the anchor's, so a flat view writes through.
        out = {name: np.empty(self.anchor.entries[name].shape) for name in self.anchor.names()}
        for name, start, ref, others in self._inputs():
            flat = out[name].reshape(-1)
            merge_block(ref, others, flat[start : start + ref.size], tmp[: ref.size])
        return ParameterSet(entries=out, model_id=self.model_id)

    def blocks(self, first: int = 0, last: int | None = None):
        """The merged values of blocks ``first`` to ``last`` (exclusive; None
        for the end) in archive order (tensors by name), one block at a time,
        each checked finite. Every block is the same scratch buffer, valid
        until the next one is drawn."""
        acc, tmp = self._scratch(), self._scratch()
        for name, _, ref, others in self._inputs(first, last):
            block = merge_block(ref, others, acc[: ref.size], tmp[: ref.size])
            if not np.all(np.isfinite(block)):
                raise NonFiniteError(f"tensor {name!r}: non-finite value")
            yield block


def merge(
    components: list[ParameterSet], ratio: MixtureRatio, model_id: str = ""
) -> MergePlan:
    """Convex combination of the components, tensor by tensor, as a plan that
    computes it when read. Arity and schemas are checked here.

    Accumulated around the heaviest component in candidate-id order, which
    makes the merge permutation-equivariant bit for bit and returns one-hot
    and all-identical inputs exactly.
    """
    if len(components) != len(ratio):
        raise ValidationError(
            f"got {len(components)} components for a {len(ratio)}-way ratio"
        )
    schema = components[0].schema()
    for comp in components[1:]:
        if comp.schema() != schema:
            raise SchemaMismatchError("merge: component schemas differ")
    order = sorted(range(len(ratio)), key=lambda i: ratio.candidate_ids[i])
    maxw = ratio.weights.max()
    anchor = next(i for i in order if ratio.weights[i] == maxw)
    others = tuple((ratio.weights[i], components[i]) for i in order if i != anchor)
    return MergePlan(anchor=components[anchor], others=others, model_id=model_id)
