"""Weighted model merging: the proxy constructor.

A mixture proxy is the convex combination of the component models'
parameters at the mixture weights, tensor by tensor (task arithmetic,
Ilharco et al., arXiv:2212.04089). On the simplex that equals adding the
weighted component updates to a shared base, so no base is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchemaMismatchError, ValidationError
from .tensor_store import ParameterSet

RATIO_SUM_TOLERANCE = 1e-9


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


def merge(
    components: list[ParameterSet], ratio: MixtureRatio, model_id: str = ""
) -> ParameterSet:
    """Convex combination of the components, tensor by tensor.

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
    out = {}
    for name in components[0].names():
        ref = components[anchor].entries[name]
        acc = np.zeros_like(ref)
        for i in order:
            if i == anchor:
                continue
            acc = acc + ratio.weights[i] * (components[i].entries[name] - ref)
        out[name] = ref + acc
    return ParameterSet(entries=out, model_id=model_id)
