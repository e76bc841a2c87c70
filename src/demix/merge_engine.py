"""Weighted model merging: the proxy constructor and its ablated variants.

All variant methods operate in delta space around a shared base: transform
each component's weight delta, combine with the mixture weights, then add the
base back. Linear merging is the hyperparameter-free default; for weights on
the simplex it is equivalent whether taken over full parameters or deltas.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaMismatchError, ValidationError
from .tensor_store import ParameterSet, WeightDelta, apply_delta, delta_magnitude

RATIO_SUM_TOLERANCE = 1e-9
ADDITIVITY_EPS = 1e-12

MERGE_METHODS = ("linear", "multi_slerp", "ties", "dare", "breadcrumbs", "della")
_STOCHASTIC = {"dare", "della"}

_DEFAULT_HYPERPARAMS = {
    "linear": {},
    "multi_slerp": {},
    "dare": {"drop_probability": 0.5},
    "ties": {"density": 0.2},
    "breadcrumbs": {"top_fraction": 0.01, "bottom_fraction": 0.85},
    "della": {"min_drop": 0.1, "max_drop": 0.9},
}


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


@dataclass
class MergeSpec:
    """Merge method selection plus per-method hyperparameters and RNG seed."""

    method: str = "linear"
    hyperparams: dict[str, float] = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        if self.method not in MERGE_METHODS:
            raise ValidationError(f"unknown merge method {self.method!r}")
        known = _DEFAULT_HYPERPARAMS[self.method]
        extra = set(self.hyperparams) - set(known)
        if extra:
            raise ValidationError(f"{self.method}: unexpected hyperparams {sorted(extra)}")
        params = dict(known)
        params.update({k: float(v) for k, v in self.hyperparams.items()})
        self._check_ranges(params)
        self.hyperparams = params
        if self.method in _STOCHASTIC and self.seed is None:
            raise ValidationError(f"{self.method}: a seed is required")

    def _check_ranges(self, p: dict[str, float]) -> None:
        # Boundaries that make variants degenerate into linear merging are
        # allowed (dare p=0, ties density=1); they are exercised as identities.
        if self.method == "dare" and not 0.0 <= p["drop_probability"] < 1.0:
            raise ValidationError("dare: drop_probability must lie in [0, 1)")
        if self.method == "ties" and not 0.0 < p["density"] <= 1.0:
            raise ValidationError("ties: density must lie in (0, 1]")
        if self.method == "breadcrumbs":
            if not 0.0 <= p["top_fraction"] < 1.0 or not 0.0 <= p["bottom_fraction"] < 1.0:
                raise ValidationError("breadcrumbs: fractions must lie in [0, 1)")
            if p["top_fraction"] + p["bottom_fraction"] >= 1.0:
                raise ValidationError("breadcrumbs: top and bottom fractions must keep something")
        if self.method == "della":
            if not 0.0 <= p["min_drop"] <= p["max_drop"] < 1.0:
                raise ValidationError("della: need 0 <= min_drop <= max_drop < 1")


@dataclass
class AdditivityReport:
    """How far a union-trained delta is from the sum of its parts."""

    relative_error: float
    per_tensor_errors: dict[str, float]
    delta_magnitudes: tuple[float | None, float | None, float | None]


def _check_components(components: list[ParameterSet], ratio: MixtureRatio) -> None:
    if len(components) != len(ratio):
        raise ValidationError(
            f"got {len(components)} components for a {len(ratio)}-way ratio"
        )
    schema = components[0].schema()
    for comp in components[1:]:
        if comp.schema() != schema:
            raise SchemaMismatchError("merge: component schemas differ")


def _canonical_order(ratio: MixtureRatio) -> list[int]:
    return sorted(range(len(ratio)), key=lambda i: ratio.candidate_ids[i])


def merge_linear(
    components: list[ParameterSet], ratio: MixtureRatio, model_id: str = ""
) -> ParameterSet:
    """Convex combination of the components, tensor by tensor.

    Accumulated around the heaviest component in candidate-id order, which
    makes the merge permutation-equivariant bit for bit and returns one-hot
    and all-identical inputs exactly.
    """
    _check_components(components, ratio)
    order = _canonical_order(ratio)
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
    return ParameterSet(entries=out, shapes=dict(components[0].shapes), model_id=model_id)


def merge(
    components: list[ParameterSet],
    ratio: MixtureRatio,
    spec: MergeSpec,
    base: ParameterSet | None = None,
    model_id: str = "",
) -> ParameterSet:
    """Merge with the method selected by ``spec``; see module docstring."""
    if spec.method == "linear":
        return merge_linear(components, ratio, model_id=model_id)
    if base is None:
        raise ValidationError(f"{spec.method}: a shared base parameter set is required")
    _check_components(components, ratio)
    if components[0].schema() != base.schema():
        raise SchemaMismatchError("merge: base schema differs from components")
    order = _canonical_order(ratio)
    names = base.names()
    sizes = [base.entries[n].size for n in names]
    bounds = np.cumsum([0] + sizes)
    flat_deltas = []
    weights = []
    comp_ids = []
    for i in order:
        flat = np.concatenate(
            [components[i].entries[n] - base.entries[n] for n in names]
        )
        flat_deltas.append(flat)
        weights.append(float(ratio.weights[i]))
        comp_ids.append(ratio.candidate_ids[i])
    weights = np.asarray(weights)

    if spec.method == "dare":
        merged = _dare(flat_deltas, weights, comp_ids, spec)
    elif spec.method == "ties":
        merged = _ties(flat_deltas, weights, spec.hyperparams["density"])
    elif spec.method == "breadcrumbs":
        merged = _breadcrumbs(flat_deltas, weights, bounds, spec)
    elif spec.method == "della":
        merged = _della(flat_deltas, weights, comp_ids, spec)
    elif spec.method == "multi_slerp":
        merged = _multi_slerp(flat_deltas, weights)
    else:  # pragma: no cover - guarded by MergeSpec
        raise ValidationError(f"unknown merge method {spec.method!r}")

    out = {}
    for name, start, stop in zip(names, bounds[:-1], bounds[1:]):
        out[name] = base.entries[name] + merged[start:stop]
    return ParameterSet(entries=out, shapes=dict(base.shapes), model_id=model_id)


def _rng_for(seed: int, *labels) -> np.random.Generator:
    """Independent substream per (seed, labels), stable across platforms and call order."""
    text = "\x1f".join(str(label) for label in labels)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    words = [int(seed) & 0xFFFFFFFF, (int(seed) >> 32) & 0xFFFFFFFF, int.from_bytes(digest, "big")]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def _dare(flat_deltas, weights, comp_ids, spec: MergeSpec) -> np.ndarray:
    p = spec.hyperparams["drop_probability"]
    merged = np.zeros_like(flat_deltas[0])
    for delta, w, cid in zip(flat_deltas, weights, comp_ids):
        if p > 0.0:
            keep = _rng_for(spec.seed, "dare", cid).random(delta.size) >= p
            delta = np.where(keep, delta / (1.0 - p), 0.0)
        merged = merged + w * delta
    return merged


def _magnitude_mask(delta: np.ndarray, keep_n: int) -> np.ndarray:
    """Keep the ``keep_n`` largest-magnitude entries (ties keep everything at the cut)."""
    if keep_n >= delta.size:
        return np.ones(delta.size, dtype=bool)
    if keep_n <= 0:
        return np.zeros(delta.size, dtype=bool)
    mags = np.abs(delta)
    threshold = np.partition(mags, delta.size - keep_n)[delta.size - keep_n]
    return mags >= threshold


def _elect_and_merge(stack: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sign election and disjoint weighted mean over the electing entries.

    Coordinates whose weighted mass is exactly zero elect positive; entries
    disagreeing with the elected sign are dropped, survivors are averaged with
    weights renormalized over the survivors.
    """
    mass = weights @ stack
    sign = np.where(mass >= 0.0, 1.0, -1.0)
    agree = (stack * sign) > 0.0
    numer = np.einsum("i,ij->j", weights, np.where(agree, stack, 0.0))
    denom = np.einsum("i,ij->j", weights, agree.astype(np.float64))
    return np.divide(numer, denom, out=np.zeros_like(numer), where=denom > 0.0)


def _ties(flat_deltas, weights, density: float) -> np.ndarray:
    m = flat_deltas[0].size
    keep_n = min(m, max(1, int(np.ceil(density * m))))
    stack = np.stack([np.where(_magnitude_mask(d, keep_n), d, 0.0) for d in flat_deltas])
    return _elect_and_merge(stack, weights)


def _breadcrumbs(flat_deltas, weights, bounds, spec: MergeSpec) -> np.ndarray:
    top = spec.hyperparams["top_fraction"]
    bottom = spec.hyperparams["bottom_fraction"]
    merged = np.zeros_like(flat_deltas[0])
    for delta, w in zip(flat_deltas, weights):
        masked = delta.copy()
        for start, stop in zip(bounds[:-1], bounds[1:]):
            chunk = delta[start:stop]
            n = chunk.size
            n_top = int(round(top * n))
            n_bottom = int(round(bottom * n))
            keep = _magnitude_mask(chunk, max(0, n - n_bottom))  # drop small entries
            if n_top > 0:
                keep &= ~_magnitude_mask(chunk, n_top)  # drop outliers
            masked[start:stop] = np.where(keep, chunk, 0.0)
        merged = merged + w * masked
    return merged


def _della(flat_deltas, weights, comp_ids, spec: MergeSpec) -> np.ndarray:
    p_min = spec.hyperparams["min_drop"]
    p_max = spec.hyperparams["max_drop"]
    rows = []
    for delta, cid in zip(flat_deltas, comp_ids):
        m = delta.size
        # Rank 0 = largest magnitude = smallest drop probability. Ties break
        # by position in the concatenated (name-sorted) layout.
        ranks = np.empty(m, dtype=np.int64)
        ranks[np.argsort(-np.abs(delta), kind="stable")] = np.arange(m)
        if m > 1:
            drop = p_min + (p_max - p_min) * ranks / (m - 1)
        else:
            drop = np.full(m, p_min)
        keep = _rng_for(spec.seed, "della", cid).random(m) >= drop
        rows.append(np.where(keep, delta / (1.0 - drop), 0.0))
    return _elect_and_merge(np.stack(rows), weights)


def _multi_slerp(flat_deltas, weights) -> np.ndarray:
    norms = np.array([float(np.linalg.norm(d)) for d in flat_deltas])
    live = norms > 0.0
    if not live.any():
        return np.zeros_like(flat_deltas[0])
    w = np.where(live, weights, 0.0)
    total = w.sum()
    if total == 0.0:
        return np.zeros_like(flat_deltas[0])
    w = w / total
    direction = np.zeros_like(flat_deltas[0])
    for delta, wi, ni, ok in zip(flat_deltas, w, norms, live):
        if ok:
            direction = direction + wi * (delta / ni)
    dir_norm = float(np.linalg.norm(direction))
    if dir_norm == 0.0:
        return np.zeros_like(flat_deltas[0])
    return float(w @ norms) * direction / dir_norm


def check_additivity(
    delta_i: WeightDelta,
    delta_j: WeightDelta,
    delta_union: WeightDelta,
    base: ParameterSet | None = None,
) -> AdditivityReport:
    """Compare a union-trained delta against the sum of two part deltas.

    ``relative_error = ||union - (i + j)||_2 / max(||union||_2, eps)``,
    reported globally and per tensor. When ``base`` is given, the three
    normalized update magnitudes are reported alongside.
    """
    for d in (delta_j, delta_union):
        if d.base_id != delta_i.base_id:
            raise SchemaMismatchError("check_additivity: deltas have different bases")
        if d.schema() != delta_i.schema():
            raise SchemaMismatchError("check_additivity: delta schemas differ")
    sq_diff = 0.0
    sq_union = 0.0
    per_tensor = {}
    for name in delta_i.names():
        diff = delta_union.entries[name] - (delta_i.entries[name] + delta_j.entries[name])
        d2 = float(np.dot(diff, diff))
        u2 = float(np.dot(delta_union.entries[name], delta_union.entries[name]))
        per_tensor[name] = float(np.sqrt(d2) / max(np.sqrt(u2), ADDITIVITY_EPS))
        sq_diff += d2
        sq_union += u2
    relative = float(np.sqrt(sq_diff) / max(np.sqrt(sq_union), ADDITIVITY_EPS))
    mags: tuple[float | None, float | None, float | None] = (None, None, None)
    if base is not None:
        mags = tuple(
            delta_magnitude(apply_delta(base, d), base) for d in (delta_i, delta_j, delta_union)
        )
    return AdditivityReport(
        relative_error=relative, per_tensor_errors=per_tensor, delta_magnitudes=mags
    )
