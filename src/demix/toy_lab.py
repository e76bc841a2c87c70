"""Desk-scale training lab: synthetic multi-domain data, tiny trainable
models, and the trained side of the paper's claim.

Each domain owns a ground-truth coefficient vector over a feature space with
three kinds of coordinates: shared coordinates that every domain samples at
unit scale but assigns different target coefficients (so mixtures trade off a
compromise), domain-private coordinates sampled at a weaker scale only by the
owning domain, and foreign coordinates a domain does not sample at all. The
general dataset is an equal blend of all domain distributions; benchmarks are
held-out noiseless per-domain eval sets scored 100 exp(-MSE), on a 0-100
scale. Every dataset of a lab, benchmarks included, is a CandidateDataset,
whose shape and finite values are checked when it is built. The module
constants NOISE_STD, OWN_STD, SHARED_TARGET_STD and OWN_TARGET_STD hold the
lab's calibration; SHARED_DIMS, EXAMPLES_PER_DOMAIN, GENERAL_EXAMPLES and
BENCHMARK_EXAMPLES hold its sizes.

Every model trained from the base trains on one blend of general data and a
mixture, :func:`reference_mixture`: a component at a one-hot mixture, and
in :func:`trained_scores` the model whose scores a merge stands in for.
Models trained from one start train together: :func:`train_lockstep` stacks
their parameters and takes each mini-batch gradient step for all of them at
once, with each model's arithmetic the same, bit for bit, as when it trains
alone. Every batch holds exactly ``batch_size`` rows; there is no full-batch
rule. :func:`train` is its one-model case, which trains the base.
"""

from __future__ import annotations

import hashlib
import json
import os
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
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise ValidationError(f"dataset {self.id!r}: X and y must be finite")

    def __len__(self) -> int:
        return self.X.shape[0]


@dataclass
class BenchmarkTask(CandidateDataset):
    """Held-out eval set for one domain with a deterministic 0-100 score."""

    domain: str


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
        if self.full_batch:
            raise ValidationError("config: full_batch must be false; training is mini-batch only")


@dataclass
class ToyLab:
    """Everything one generated lab world contains."""

    candidates: list[CandidateDataset]
    general: CandidateDataset
    tasks: list[BenchmarkTask]


def domain_of(tasks: list[BenchmarkTask]) -> dict[str, str]:
    """The domain of each benchmark, by benchmark id."""
    return {task.id: task.domain for task in tasks}


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
    can address. Raise MemoryError if the lab's arrays (features and
    targets of its candidates, benchmarks and general blend) need more bytes
    than the machine's physical memory."""
    if n_domains < 2 or d < SHARED_DIMS:
        raise ValidationError(f"lab: need n_domains >= 2 and feature_dim >= {SHARED_DIMS}")
    sizes = {"examples": max(EXAMPLES_PER_DOMAIN, GENERAL_EXAMPLES, BENCHMARK_EXAMPLES),
             "feature_dim": d, "n_domains": n_domains}
    if config is not None:
        sizes["batch_size"] = config.batch_size
        if config.model_family == "mlp_1hidden":
            sizes["hidden_units"] = config.hidden_units
    (_, second), (key, largest) = sorted(sizes.items(), key=lambda item: item[1])[-2:]
    if largest * second > np.iinfo(np.intp).max // 8:
        raise ValidationError(
            f"config: {key} = {largest} makes arrays too large for numpy to address"
        )
    examples = n_domains * (EXAMPLES_PER_DOMAIN + BENCHMARK_EXAMPLES) + GENERAL_EXAMPLES
    lab_bytes = 8 * (d + 1) * examples
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if lab_bytes > memory:
        raise MemoryError(
            f"config: n_domains = {n_domains} and feature_dim = {d} make a lab of"
            f" {lab_bytes} bytes, more than the machine's {memory} bytes of memory"
        )


def _draw(rng, count: int, scale: np.ndarray, theta: np.ndarray, noiseless: bool = False):
    """``count`` rows of one domain: features at ``scale``, targets ``X @ theta``,
    plus label noise unless ``noiseless``."""
    X = rng.standard_normal((count, scale.size)) * scale
    y = X @ theta
    if not noiseless:
        y = y + NOISE_STD * rng.standard_normal(count)
    return X, y


def make_domains(n_domains: int, d: int, seed: int) -> ToyLab:
    """Generate candidate datasets, the general blend, and benchmark tasks."""
    check_lab_size(n_domains, d)
    shared_dirs = _shared_directions(n_domains, _rng_for(seed, "target", "shared"))
    candidates, blocks, tasks = [], [], []
    for k, name in enumerate(domain_ids(n_domains)):
        own = list(range(SHARED_DIMS + k, d, n_domains))
        scale = np.zeros(d)
        scale[:SHARED_DIMS] = 1.0
        scale[own] = OWN_STD
        theta = np.zeros(d)
        theta[:SHARED_DIMS] = SHARED_TARGET_STD * np.sqrt(SHARED_DIMS) * shared_dirs[k]
        if own:
            direction = _rng_for(seed, "target", k).standard_normal(len(own))
            direction /= np.linalg.norm(direction)
            theta[own] = OWN_TARGET_STD * np.sqrt(len(own)) * direction
        X, y = _draw(_rng_for(seed, "candidate", k), EXAMPLES_PER_DOMAIN, scale, theta)
        candidates.append(CandidateDataset(id=name, X=X, y=y))
        count = GENERAL_EXAMPLES // n_domains + int(k < GENERAL_EXAMPLES % n_domains)
        blocks.append(_draw(_rng_for(seed, "general", k), count, scale, theta))
        X, y = _draw(_rng_for(seed, "benchmark", k), BENCHMARK_EXAMPLES, scale, theta, noiseless=True)
        tasks.append(BenchmarkTask(id=f"bench_{name}", X=X, y=y, domain=name))

    # Interleave the domain blocks round-robin so mini-batches stay blended.
    order = np.argsort(
        np.concatenate([np.arange(len(y)) * n_domains + k for k, (_, y) in enumerate(blocks)]),
        kind="stable",
    )
    general = CandidateDataset(
        id="general",
        X=np.concatenate([X for X, _ in blocks])[order],
        y=np.concatenate([y for _, y in blocks])[order],
    )
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
    (None otherwise). Parameters stacked along a leading axis of models give
    each model's predictions on its own rows of a stacked X; each model's
    products are then the same BLAS calls as its own."""
    if "w" in arrays:
        return (X @ arrays["w"][..., None])[..., 0] + arrays["b"], None
    hidden = np.tanh(X @ arrays["w1"] + arrays["b1"][..., None, :])
    return (hidden @ arrays["w2"][..., None])[..., 0] + arrays["b2"], hidden


def _loss_and_grads(arrays: dict, X: np.ndarray, y: np.ndarray):
    """Each stacked model's half mean squared error on its rows of X and y,
    and its gradients, stacked like ``arrays``."""
    m = X.shape[-2]
    out, hidden = _forward(arrays, X)
    err = out - y
    loss = 0.5 * (err[..., None, :] @ err[..., None])[..., 0, 0] / m
    X_t = np.swapaxes(X, -1, -2)
    if hidden is None:
        grad_w = (X_t @ err[..., None])[..., 0] / m
        return loss, {"w": grad_w, "b": err.mean(axis=-1, keepdims=True)}
    g_out = err / m
    g_hidden = g_out[..., None] * arrays["w2"][..., None, :] * (1.0 - hidden**2)
    return loss, {
        "w1": X_t @ g_hidden,
        "b1": g_hidden.sum(axis=-2),
        "w2": (np.swapaxes(hidden, -1, -2) @ g_out[..., None])[..., 0],
        "b2": g_out.sum(axis=-1, keepdims=True),
    }


def _batch_allocations(weights: np.ndarray, batch: int, steps: int):
    """Per-step dataset allocations of each row of ``weights`` (one row per
    model), with long-run proportions exactly equal to the row (cumulative
    largest-remainder rounding). A dataset at weight 0 gets no rows. For rows
    that sum to 1, as :func:`train_lockstep` passes them, every allocation
    sums to exactly ``batch``."""
    live = weights > 0.0
    n_live = live.sum(axis=1)
    models = np.arange(weights.shape[0])[:, None]
    ranks = np.arange(weights.shape[1])
    served = np.zeros(weights.shape, dtype=np.int64)
    for step in range(steps):
        raw = weights * batch * (step + 1) - served
        take = np.maximum(np.floor(raw).astype(np.int64), 0)
        short = batch - take.sum(axis=1)
        frac = raw - take
        # Rows left over go one each to the live datasets with the largest
        # remainders, the first of equal ones first.
        order = np.argsort(np.where(live, -frac, np.inf), axis=1, kind="stable")
        take[models, order] += ranks < np.minimum(short, n_live)[:, None]
        while (short < 0).any():
            # Over-allocated: one row back from each dataset that has one,
            # smallest remainders first, pass after pass until the batch fits.
            order = np.argsort(frac, axis=1, kind="stable")
            has = take[models, order] > 0
            back = has & (np.cumsum(has, axis=1) <= -short[:, None])
            take[models, order] -= back
            short += back.sum(axis=1)
        served += take
        yield take


# Working memory of one block of models that train_lockstep trains together:
# their stacked parameters, gradients and activations, and the rows of as
# many steps as fit beside them. More models than fit train block after
# block, so this memory does not grow with their number.
TRAIN_BLOCK_BYTES = 1 << 21


def train(
    dataset_mixture: list[tuple[CandidateDataset, float]],
    init: ParameterSet,
    config: ComponentTrainingConfig,
) -> ParameterSet:
    """One model trained from ``init`` on the weighted dataset blend: the
    one-model case of :func:`train_lockstep`."""
    return train_lockstep([dataset_mixture], init, config)[0]


def train_lockstep(
    mixtures: list[list[tuple[CandidateDataset, float]]],
    init: ParameterSet,
    config: ComponentTrainingConfig,
) -> list[ParameterSet]:
    """One model per mixture, each trained from ``init`` by gradient descent
    on its weighted blend of the same datasets, listed in the same order.

    Each step's batch holds exactly ``config.batch_size`` rows, drawn from
    each dataset proportionally to its weight (stratified, largest
    remainders, deterministic cursors). The models train in lockstep, their
    parameters stacked, in blocks that fit :data:`TRAIN_BLOCK_BYTES`; each
    model's arithmetic is the same, bit for bit, as when it trains alone. If
    a loss stops being finite, raises the TrainingError that training the
    mixtures one by one would: the first diverging mixture's, with its step
    index and its ``model`` index.
    """
    if not mixtures or not mixtures[0]:
        raise ValidationError("train: empty dataset mixture")
    datasets = [ds for ds, _ in mixtures[0]]
    if any(len(mix) != len(datasets) or any(a is not b for (a, _), b in zip(mix, datasets))
           for mix in mixtures):
        raise ValidationError("train: the mixtures must blend the same datasets in the same order")
    ids = [ds.id for ds in datasets]
    given = np.array([[float(w) for _, w in mix] for mix in mixtures])
    live = np.array([MixtureRatio(weights=row, candidate_ids=ids).weights > 0.0 for row in given])
    dim = datasets[0].X.shape[1]
    if any(ds.X.shape[1] != dim for ds in datasets):
        raise SchemaMismatchError("train: datasets have different feature dims")
    family = _check_model(init, dim, "train: the initial model")
    if family != config.model_family:
        raise SchemaMismatchError(
            f"train: the initial model is {family}, but the config trains {config.model_family}"
        )
    if config.steps == 0:
        return [init.copy() for _ in mixtures]

    # Each row of weights as given, renormalized over its live datasets alone:
    # a sum over zeros too can round differently.
    weights = np.zeros(given.shape)
    for row, ok, out in zip(given, live, weights):
        out[ok] = row[ok] / row[ok].sum()
    hidden = config.hidden_units if family == "mlp_1hidden" else 0
    model_bytes = 8 * (config.batch_size * (4 * hidden + 3) + 3 * init.num_values())
    row_bytes = 8 * config.batch_size * (dim + 1)  # one model's rows of one step
    block = max(1, TRAIN_BLOCK_BYTES // (model_bytes + row_bytes))
    models = []
    for start in range(0, len(weights), block):
        part = weights[start : start + block]
        chunk = max(1, (TRAIN_BLOCK_BYTES - len(part) * model_bytes) // (len(part) * row_bytes))
        models += _train_block(datasets, part, init, config, start, chunk)
    return models


# Divergence shows up as inf/nan loss and is reported as a TrainingError;
# keep numpy quiet about the overflow itself, and about the models that
# train on after it.
@np.errstate(over="ignore", invalid="ignore")
def _train_block(datasets, weights, init, config, first: int, chunk: int) -> list[ParameterSet]:
    """:func:`train_lockstep` for one block of models, the first of which is
    model ``first``, gathering the rows of ``chunk`` steps at a time.
    Diverged models train on, unreported, while any model of the block has
    not diverged."""
    n_models = weights.shape[0]
    params = {name: np.repeat(init.entries[name][None], n_models, axis=0) for name in init.names()}
    steps = _mini_batch_steps(datasets, weights, params, config, chunk)
    failures: list[str | None] = [None] * n_models
    for step, (loss, grads) in enumerate(steps):
        for r in np.flatnonzero(~np.isfinite(loss)):
            if failures[r] is None:
                failures[r] = f"training diverged at step {step}: loss={float(loss[r])!r}"
        if all(failures):
            break
        for name in params:
            params[name] -= config.step_size * grads[name]
    for r in range(n_models):
        bad = [name for name, arr in params.items() if not np.all(np.isfinite(arr[r]))]
        if failures[r] is None and bad:
            failures[r] = f"training diverged: non-finite {bad[0]!r} after final step"
    for r, failure in enumerate(failures):
        if failure is not None:
            raise TrainingError(failure, model=first + r)
    return [
        ParameterSet.from_arrays({name: arr[r].copy() for name, arr in params.items()})
        for r in range(n_models)
    ]


def _mini_batch_steps(datasets, weights, params: dict, config, chunk: int):
    """Each step's losses and gradients of the stacked models ``params`` on
    their batches: each dataset's next rows in turn, as many as
    :func:`_batch_allocations` gives it, ``config.batch_size`` in all. The
    batches of ``chunk`` steps are gathered at once, one index per dataset."""
    n_models, n_data = weights.shape
    allocations = _batch_allocations(weights, config.batch_size, config.steps)
    cursors = np.zeros(weights.shape, dtype=np.int64)
    X_rows = np.empty((chunk * n_models * config.batch_size, datasets[0].X.shape[1]))
    y_rows = np.empty(X_rows.shape[0])
    for start in range(0, config.steps, chunk):
        takes = np.stack([next(allocations) for _ in range(min(chunk, config.steps - start))])
        # One run of rows per (step, model, dataset), in that order.
        counts = takes.reshape(-1)
        total = counts.sum()
        first_row = (cursors + np.cumsum(takes, axis=0) - takes).reshape(-1)
        at = np.cumsum(counts) - counts
        source = np.repeat(first_row - at, counts) + np.arange(total)
        dataset = np.repeat(np.tile(np.arange(n_data), len(counts) // n_data), counts)
        for i, ds in enumerate(datasets):
            rows = np.flatnonzero(dataset == i)
            X_rows[rows] = ds.X[source[rows] % len(ds)]
            y_rows[rows] = ds.y[source[rows] % len(ds)]
        cursors += takes.sum(axis=0)
        shape = (len(takes), n_models, config.batch_size)
        for X, y in zip(X_rows[:total].reshape(*shape, -1), y_rows[:total].reshape(shape)):
            yield _loss_and_grads(params, X, y)


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
    component per candidate, all in lockstep, on the blend of its one-hot
    mixture. A TrainingError names the base or the first component whose
    training diverged."""
    base_steps = config.steps if config.base_steps is None else config.base_steps
    start = init_params(config, general.X.shape[1])
    try:
        base = train([(general, 1.0)], start, replace(config, steps=base_steps))
    except TrainingError as exc:
        raise TrainingError(f"training the base: {exc}", model=exc.model) from exc
    base = base.copy(model_id="base")
    ids = [c.id for c in candidates]
    mixtures = [
        reference_mixture(
            candidates, general, MixtureRatio(weights=one_hot, candidate_ids=ids),
            config.general_mix_beta,
        )
        for one_hot in np.eye(len(ids))
    ]
    try:
        components = train_lockstep(mixtures, base, config)
    except TrainingError as exc:
        raise TrainingError(f"training component {ids[exc.model]}: {exc}", model=exc.model) from exc
    return base, [comp.copy(model_id=f"component_{cid}") for cid, comp in zip(ids, components)]


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
    lab: ToyLab, base: ParameterSet, config: ComponentTrainingConfig, ratios: list[MixtureRatio]
) -> list[dict[str, float]]:
    """The benchmark scores of models trained, in lockstep, from ``base`` on
    the blend of each mixture in ``ratios``: what merges of the components at
    those ratios stand in for. A TrainingError names the first ratio whose
    training diverged."""
    mixtures = [
        reference_mixture(lab.candidates, lab.general, ratio, config.general_mix_beta)
        for ratio in ratios
    ]
    try:
        models = train_lockstep(mixtures, base, config)
    except TrainingError as exc:
        ratio = ratios[exc.model].as_dict()
        raise TrainingError(f"training at ratio {ratio}: {exc}", model=exc.model) from exc
    return [evaluate_model(model, lab.tasks) for model in models]


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
    return _read_lab(path, _lab_from_npz)


def load_tasks(path) -> list[BenchmarkTask]:
    """The benchmark tasks of a lab written by :func:`save_lab`, read without
    its training sets. Errors as in :func:`load_lab`."""
    return _read_lab(path, _tasks_from_npz)


def _read_lab(path, build):
    """``build(data, meta)`` on the lab file ``path`` and its decoded ``meta``."""
    try:
        # Opened here, because np.load leaks the file it opened when the
        # file starts like a zip archive but is not one.
        with open(path, "rb") as fh, np.load(fh) as data:
            return build(data, json.loads(bytes(data["meta"].tobytes()).decode("utf-8")))
    except OSError as exc:
        raise ValidationError(f"cannot read lab {path}: {exc.strerror or exc}") from None
    except (
        ValidationError, ValueError, KeyError, TypeError, EOFError, RecursionError,
        zipfile.BadZipFile,
    ) as exc:
        raise ValidationError(f"{path}: not a demix lab: {exc}") from None


def _lab_from_npz(data, meta) -> ToyLab:
    candidates = [
        CandidateDataset(id=spec["id"], X=data[f"cand_{i}_X"], y=data[f"cand_{i}_y"])
        for i, spec in enumerate(meta["candidates"])
    ]
    general = CandidateDataset(id="general", X=data["general_X"], y=data["general_y"])
    return ToyLab(candidates=candidates, general=general, tasks=_tasks_from_npz(data, meta))


def _tasks_from_npz(data, meta) -> list[BenchmarkTask]:
    return [
        BenchmarkTask(
            id=spec["id"], X=data[f"bench_{i}_X"], y=data[f"bench_{i}_y"], domain=spec["domain"]
        )
        for i, spec in enumerate(meta["tasks"])
    ]
