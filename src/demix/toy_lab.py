"""Desk-scale training lab: synthetic multi-domain data, tiny trainable
models, and the trained side of the paper's claim.

Each domain owns a ground-truth coefficient vector over a feature space with
three kinds of coordinates: shared coordinates that every domain samples at
unit scale but assigns different target coefficients (so mixtures trade off a
compromise), domain-private coordinates sampled at a weaker scale only by the
owning domain, and foreign coordinates a domain does not sample at all. The
general dataset is an equal blend of all domain distributions; benchmarks are
held-out noiseless per-domain eval sets scored 100 exp(-MSE), on a 0-100
scale. The module constants NOISE_STD, OWN_STD, SHARED_TARGET_STD and
OWN_TARGET_STD hold the lab's calibration; SHARED_DIMS, EXAMPLES_PER_DOMAIN,
GENERAL_EXAMPLES and BENCHMARK_EXAMPLES hold its sizes.

Every model trained from the base trains on one blend of general data and a
mixture, :func:`reference_mixture`: a component at a one-hot mixture, and
in :func:`trained_scores` the model whose scores a merge stands in for.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import dataclass, replace

import numpy as np

from .errors import SchemaMismatchError, TrainingError, ValidationError
from .merge_engine import MixtureRatio
from .tensor_store import ParameterSet, atomic_write

MODEL_FAMILIES = ("linear_regression", "mlp_1hidden")

# The lab's calibration: label noise of the training sets, the sampling scale
# of a domain's private coordinates, and the target norms per coordinate of
# the shared and the private blocks.
NOISE_STD = 0.05
OWN_STD = 0.45
SHARED_TARGET_STD = 0.6
OWN_TARGET_STD = 1.2

# The lab's sizes: the width of the shared coordinate block, the examples of
# each candidate dataset and of the general blend, and those of each benchmark.
SHARED_DIMS = 4
EXAMPLES_PER_DOMAIN = 600
GENERAL_EXAMPLES = 600
BENCHMARK_EXAMPLES = 256


@dataclass
class CandidateDataset:
    """Finite synthetic dataset drawn around one domain's ground truth."""

    id: str
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64).reshape(-1)
        if self.X.ndim != 2 or self.X.shape[0] != self.y.size or self.X.shape[0] == 0:
            raise ValidationError(f"dataset {self.id!r}: X must be (m, d) aligned with y")

    def __len__(self) -> int:
        return self.X.shape[0]


@dataclass
class BenchmarkTask:
    """Held-out eval set for one domain with a deterministic 0-100 score."""

    id: str
    domain: str
    X: np.ndarray
    y: np.ndarray


@dataclass
class ComponentTrainingConfig:
    general_mix_beta: float = 0.5
    steps: int = 100
    step_size: float = 0.2
    batch_size: int = 64
    seed: int = 0
    model_family: str = "linear_regression"
    hidden_units: int = 8
    base_steps: int | None = None
    full_batch: bool = False

    def __post_init__(self):
        if not 0.0 <= self.general_mix_beta <= 1.0:
            raise ValidationError("config: general_mix_beta must lie in [0, 1]")
        if self.steps < 0 or self.batch_size < 1:
            raise ValidationError("config: steps must be >= 0 and batch_size >= 1")
        if not 0.0 < self.step_size < np.inf:
            raise ValidationError("config: step_size must be positive and finite")
        if self.base_steps is not None and self.base_steps < 0:
            raise ValidationError("config: base_steps must be >= 0")
        if self.model_family not in MODEL_FAMILIES:
            raise ValidationError(f"config: unknown model family {self.model_family!r}")
        if self.hidden_units < 1:
            raise ValidationError("config: hidden_units must be at least 1")


@dataclass
class ToyLab:
    """Everything one generated lab world contains."""

    candidates: list[CandidateDataset]
    general: CandidateDataset
    tasks: list[BenchmarkTask]

    def domain_of_benchmarks(self) -> dict[str, str]:
        return {task.id: task.domain for task in self.tasks}


def _rng_for(seed: int, *labels) -> np.random.Generator:
    """Independent substream per (seed, labels), stable across platforms and call order."""
    text = "\x1f".join(str(label) for label in labels)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    words = [int(seed) & 0xFFFFFFFF, (int(seed) >> 32) & 0xFFFFFFFF, int.from_bytes(digest, "big")]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def _shared_directions(n_domains: int, rng: np.random.Generator) -> np.ndarray:
    """Unit directions for the domains' shared-coordinate targets.

    Orthonormal when the shared block is wide enough, so every domain sits at
    the same distance from the blend's compromise point and the general-trained
    base starts out balanced across domain benchmarks.
    """
    raw = rng.standard_normal((SHARED_DIMS, max(n_domains, 1)))
    if SHARED_DIMS >= n_domains:
        q, _ = np.linalg.qr(raw)
        dirs = q[:, :n_domains]
        signs = np.where(dirs[0] >= 0, 1.0, -1.0)  # pin QR sign convention
        return (dirs * signs).T
    return (raw / np.linalg.norm(raw, axis=0, keepdims=True)).T[:n_domains]


def domain_ids(n_domains: int) -> list[str]:
    """The ids of a lab's domains, which name its candidates and components."""
    return [f"dom{k}" for k in range(n_domains)]


def check_lab_size(
    n_domains: int, d: int, config: ComponentTrainingConfig | None = None
) -> None:
    """Raise ValidationError unless a lab of ``n_domains`` domains over ``d``
    features can be made and, given ``config``, its models trained. Every
    array the lab, a model or a training step holds is shaped by two of the
    sizes below, so no two of them may multiply past what one numpy array
    can address."""
    if n_domains < 2 or d < SHARED_DIMS:
        raise ValidationError(f"lab: need n_domains >= 2 and feature_dim >= {SHARED_DIMS}")
    sizes = {"examples": max(EXAMPLES_PER_DOMAIN, GENERAL_EXAMPLES, BENCHMARK_EXAMPLES),
             "feature_dim": d}
    if config is not None:
        sizes["batch_size"] = config.batch_size
        if config.model_family == "mlp_1hidden":
            sizes["hidden_units"] = config.hidden_units
    (_, second), (key, largest) = sorted(sizes.items(), key=lambda item: item[1])[-2:]
    if largest * second > np.iinfo(np.intp).max // 8:
        raise ValidationError(
            f"config: {key} = {largest} makes arrays too large for numpy to address"
        )


def make_domains(n_domains: int, d: int, seed: int) -> ToyLab:
    """Generate candidate datasets, the general blend, and benchmark tasks."""
    check_lab_size(n_domains, d)
    domains = domain_ids(n_domains)
    own_coords = {
        k: [SHARED_DIMS + i for i in range(d - SHARED_DIMS) if i % n_domains == k]
        for k in range(n_domains)
    }

    shared_dirs = _shared_directions(n_domains, _rng_for(seed, "target", "shared"))
    scales = {}
    targets = {}
    for k, name in enumerate(domains):
        scale = np.zeros(d)
        scale[:SHARED_DIMS] = 1.0
        scale[own_coords[k]] = OWN_STD
        scales[name] = scale
        target_rng = _rng_for(seed, "target", k)
        theta = np.zeros(d)
        theta[:SHARED_DIMS] = SHARED_TARGET_STD * np.sqrt(SHARED_DIMS) * shared_dirs[k]
        own = own_coords[k]
        if own:
            direction = target_rng.standard_normal(len(own))
            direction /= np.linalg.norm(direction)
            theta[own] = OWN_TARGET_STD * np.sqrt(len(own)) * direction
        targets[name] = theta

    def draw(name: str, count: int, rng: np.random.Generator, noiseless: bool):
        X = rng.standard_normal((count, d)) * scales[name]
        y = X @ targets[name]
        if not noiseless:
            y = y + NOISE_STD * rng.standard_normal(count)
        return X, y

    candidates = []
    for k, name in enumerate(domains):
        X, y = draw(name, EXAMPLES_PER_DOMAIN, _rng_for(seed, "candidate", k), noiseless=False)
        candidates.append(CandidateDataset(id=name, X=X, y=y))

    counts = [GENERAL_EXAMPLES // n_domains] * n_domains
    for k in range(GENERAL_EXAMPLES % n_domains):
        counts[k] += 1
    blocks = [
        draw(name, counts[k], _rng_for(seed, "general", k), noiseless=False)
        for k, name in enumerate(domains)
    ]
    # Interleave the domain blocks round-robin so mini-batches stay blended.
    order = np.argsort(
        np.concatenate([np.arange(c) * n_domains + k for k, c in enumerate(counts)]),
        kind="stable",
    )
    general = CandidateDataset(
        id="general",
        X=np.concatenate([b[0] for b in blocks])[order],
        y=np.concatenate([b[1] for b in blocks])[order],
    )

    tasks = []
    for k, name in enumerate(domains):
        X, y = draw(name, BENCHMARK_EXAMPLES, _rng_for(seed, "benchmark", k), noiseless=True)
        tasks.append(BenchmarkTask(id=f"bench_{name}", domain=name, X=X, y=y))
    return ToyLab(candidates=candidates, general=general, tasks=tasks)


# --- model families -------------------------------------------------------


def init_params(config: ComponentTrainingConfig, d: int) -> ParameterSet:
    """Small random initialization for the configured model family."""
    rng = _rng_for(config.seed, "init", config.model_family)
    if config.model_family == "linear_regression":
        arrays = {"w": 0.01 * rng.standard_normal(d), "b": np.zeros(1)}
    else:
        h = config.hidden_units
        arrays = {
            "w1": rng.standard_normal((d, h)) / np.sqrt(d),
            "b1": np.zeros(h),
            "w2": rng.standard_normal(h) / np.sqrt(h),
            "b2": np.zeros(1),
        }
    return ParameterSet.from_arrays(arrays, model_id="init")


def _check_model(params: ParameterSet, dim: int, who: str) -> str:
    """The family of the model's schema, one of MODEL_FAMILIES; raises
    SchemaMismatchError unless its tensor shapes fit ``dim``-dim inputs."""
    shapes = params.schema()
    if set(shapes) == {"w", "b"}:
        family, expected = "linear_regression", {"b": (1,), "w": (dim,)}
    elif set(shapes) == {"w1", "b1", "w2", "b2"}:
        h = params.entries["w2"].size
        family, expected = "mlp_1hidden", {"b1": (h,), "b2": (1,), "w1": (dim, h), "w2": (h,)}
    else:
        raise SchemaMismatchError(f"{who} has an unrecognized schema {sorted(shapes)}")
    if shapes != expected:
        raise SchemaMismatchError(
            f"{who}'s tensor shapes {shapes} do not fit {dim}-dim inputs, which need {expected}"
        )
    return family


def _forward(arrays: dict, X: np.ndarray):
    """The model's predictions for inputs X, and the hidden layer for the MLP
    (None otherwise)."""
    if "w" in arrays:
        return X @ arrays["w"] + arrays["b"][0], None
    hidden = np.tanh(X @ arrays["w1"] + arrays["b1"])
    return hidden @ arrays["w2"] + arrays["b2"][0], hidden


# Divergence shows up as inf/nan loss and is reported by train(); keep numpy
# quiet about the overflow itself.
@np.errstate(over="ignore", invalid="ignore")
def _loss_and_grads(arrays: dict, X: np.ndarray, y: np.ndarray):
    m = X.shape[0]
    out, hidden = _forward(arrays, X)
    err = out - y
    loss = 0.5 * float(err @ err) / m
    if hidden is None:
        return loss, {"w": X.T @ err / m, "b": np.array([err.mean()])}
    g_out = err / m
    g_w2 = hidden.T @ g_out
    g_hidden = np.outer(g_out, arrays["w2"]) * (1.0 - hidden**2)
    return loss, {
        "w1": X.T @ g_hidden,
        "b1": g_hidden.sum(axis=0),
        "w2": g_w2,
        "b2": np.array([g_out.sum()]),
    }


def _batch_allocations(weights: np.ndarray, batch: int, steps: int):
    """Per-step dataset allocations with long-run proportions exactly equal to
    the weights (cumulative largest-remainder rounding)."""
    served = np.zeros(weights.size, dtype=np.int64)
    for step in range(steps):
        raw = weights * batch * (step + 1) - served
        take = np.maximum(np.floor(raw).astype(np.int64), 0)
        short = batch - int(take.sum())
        if short > 0:
            frac = raw - take
            for i in np.argsort(-frac, kind="stable")[:short]:
                take[i] += 1
        elif short < 0:
            frac = raw - take
            for i in np.argsort(frac, kind="stable"):
                if short == 0:
                    break
                if take[i] > 0:
                    take[i] -= 1
                    short += 1
        served += take
        yield take


def train(
    dataset_mixture: list[tuple[CandidateDataset, float]],
    init: ParameterSet,
    config: ComponentTrainingConfig,
) -> ParameterSet:
    """Mini-batch gradient descent on the weighted dataset blend.

    Batches draw from each dataset proportionally to its weight (stratified,
    largest remainders, deterministic cursors); ``config.full_batch`` instead
    uses the exact weighted mean gradient of the whole blend each step.
    Raises TrainingError with the step index if the loss stops being finite.
    """
    if not dataset_mixture:
        raise ValidationError("train: empty dataset mixture")
    ids = [ds.id for ds, _ in dataset_mixture]
    weights = MixtureRatio(
        weights=[w for _, w in dataset_mixture], candidate_ids=ids
    ).weights
    dim = dataset_mixture[0][0].X.shape[1]
    for ds, _ in dataset_mixture:
        if ds.X.shape[1] != dim:
            raise SchemaMismatchError("train: datasets have different feature dims")
    family = _check_model(init, dim, "train: the initial model")
    if family != config.model_family:
        raise SchemaMismatchError(
            f"train: the initial model is {family}, but the config trains {config.model_family}"
        )
    arrays = {name: init.entries[name].copy() for name in init.names()}
    if config.steps == 0:
        return init.copy()

    live = [(ds, float(w)) for (ds, w), ok in zip(dataset_mixture, weights > 0.0) if ok]
    live_weights = np.array([w for _, w in live])
    live_weights = live_weights / live_weights.sum()

    def blended_loss_grads():
        total_loss = 0.0
        grads = {name: np.zeros_like(arr) for name, arr in arrays.items()}
        for (ds, _), w in zip(live, live_weights):
            loss, g = _loss_and_grads(arrays, ds.X, ds.y)
            total_loss += w * loss
            for name in grads:
                grads[name] += w * g[name]
        return total_loss, grads

    cursors = np.zeros(len(live), dtype=np.int64)
    allocations = (
        None
        if config.full_batch
        else _batch_allocations(live_weights, config.batch_size, config.steps)
    )
    for step in range(config.steps):
        if config.full_batch:
            loss, grads = blended_loss_grads()
        else:
            take = next(allocations)
            xs, ys = [], []
            for i, ((ds, _), count) in enumerate(zip(live, take)):
                if count == 0:
                    continue
                idx = (cursors[i] + np.arange(count)) % len(ds)
                cursors[i] += count
                xs.append(ds.X[idx])
                ys.append(ds.y[idx])
            loss, grads = _loss_and_grads(arrays, np.concatenate(xs), np.concatenate(ys))
        if not np.isfinite(loss):
            raise TrainingError(f"training diverged at step {step}: loss={loss!r}")
        for name in arrays:
            arrays[name] = arrays[name] - config.step_size * grads[name]
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise TrainingError(f"training diverged: non-finite {name!r} after final step")
    return ParameterSet.from_arrays(arrays, model_id="")


def evaluate_model(model: ParameterSet, tasks: list[BenchmarkTask]) -> dict[str, float]:
    """Deterministic per-task scores in [0, 100]; higher is better."""
    for dim in {task.X.shape[1] for task in tasks}:
        _check_model(model, dim, "evaluate: the model")
    row = {}
    for task in tasks:
        values, _ = _forward(model.entries, task.X)
        mse = float(np.mean((values - task.y) ** 2))
        row[task.id] = 100.0 * float(np.exp(-mse))
    return row


def prepare_components(
    candidates: list[CandidateDataset],
    general: CandidateDataset,
    config: ComponentTrainingConfig,
) -> tuple[ParameterSet, list[ParameterSet]]:
    """Two-step protocol: train the shared base on general data, then one
    component per candidate on the blend of its one-hot mixture."""
    base_steps = config.steps if config.base_steps is None else config.base_steps
    start = init_params(config, general.X.shape[1])
    base = train([(general, 1.0)], start, replace(config, steps=base_steps))
    base = base.copy(model_id="base")
    ids = [c.id for c in candidates]
    components = []
    for cid, one_hot in zip(ids, np.eye(len(ids))):
        mixture = reference_mixture(
            candidates, general, MixtureRatio(weights=one_hot, candidate_ids=ids),
            config.general_mix_beta,
        )
        components.append(train(mixture, base, config).copy(model_id=f"component_{cid}"))
    return base, components


def reference_mixture(
    candidates: list[CandidateDataset],
    general: CandidateDataset,
    ratio: MixtureRatio,
    beta: float,
) -> list[tuple[CandidateDataset, float]]:
    """The training blend of a mixture: general data at weight ``beta``, each
    candidate at its weight in ``ratio`` times ``1 - beta``."""
    by_id = {c.id: c for c in candidates}
    missing = [c for c in ratio.candidate_ids if c not in by_id]
    if missing:
        raise ValidationError(f"reference_mixture: unknown candidates {missing}")
    mix = [(general, beta)]
    mix += [(by_id[cid], (1.0 - beta) * float(w)) for cid, w in ratio.as_dict().items()]
    return mix


def trained_scores(
    lab: ToyLab, base: ParameterSet, config: ComponentTrainingConfig, ratio: MixtureRatio
) -> dict[str, float]:
    """The benchmark scores of a model trained from ``base`` on the blend of
    mixture ``ratio``: what a merge of the components at ``ratio`` stands in
    for. A TrainingError names the ratio."""
    mixture = reference_mixture(lab.candidates, lab.general, ratio, config.general_mix_beta)
    try:
        model = train(mixture, base, config)
    except TrainingError as exc:
        raise TrainingError(f"training at ratio {ratio.as_dict()}: {exc}") from exc
    return evaluate_model(model, lab.tasks)


# --- persistence ----------------------------------------------------------


def save_lab(lab: ToyLab, path) -> None:
    """Persist a lab world as an .npz archive."""
    meta = {
        "candidates": [{"id": c.id} for c in lab.candidates],
        "tasks": [{"id": t.id, "domain": t.domain} for t in lab.tasks],
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)}
    for i, cand in enumerate(lab.candidates):
        arrays[f"cand_{i}_X"] = cand.X
        arrays[f"cand_{i}_y"] = cand.y
    arrays["general_X"] = lab.general.X
    arrays["general_y"] = lab.general.y
    for i, task in enumerate(lab.tasks):
        arrays[f"bench_{i}_X"] = task.X
        arrays[f"bench_{i}_y"] = task.y
    # Through a file object, so np.savez writes to ``path`` itself rather
    # than appending ".npz" to it.
    with atomic_write(path) as fh:
        np.savez(fh, **arrays)


def load_lab(path) -> ToyLab:
    """Read a lab written by :func:`save_lab`. A missing or unreadable file,
    or one that is not such a lab, raises ValidationError naming ``path``."""
    try:
        # Opened here, because np.load leaks the file it opened when the
        # file starts like a zip archive but is not one.
        with open(path, "rb") as fh, np.load(fh) as data:
            return _lab_from_npz(data)
    except OSError as exc:
        raise ValidationError(f"cannot read lab {path}: {exc.strerror or exc}") from None
    except (
        ValidationError, ValueError, KeyError, TypeError, EOFError, RecursionError,
        zipfile.BadZipFile,
    ) as exc:
        raise ValidationError(f"{path}: not a demix lab: {exc}") from None


def _lab_from_npz(data) -> ToyLab:
    meta = json.loads(bytes(data["meta"].tobytes()).decode("utf-8"))
    candidates = [
        CandidateDataset(id=spec["id"], X=data[f"cand_{i}_X"], y=data[f"cand_{i}_y"])
        for i, spec in enumerate(meta["candidates"])
    ]
    general = CandidateDataset(id="general", X=data["general_X"], y=data["general_y"])
    tasks = []
    for i, spec in enumerate(meta["tasks"]):
        # Older labs name each benchmark's scoring; a regression one still loads.
        if "scoring" in spec and spec["scoring"] != "exp_neg_mse":
            raise ValidationError(f"benchmark {spec['id']!r}: unsupported scoring {spec['scoring']!r}")
        tasks.append(BenchmarkTask(spec["id"], spec["domain"], data[f"bench_{i}_X"],
                                   data[f"bench_{i}_y"]))
    return ToyLab(candidates=candidates, general=general, tasks=tasks)
