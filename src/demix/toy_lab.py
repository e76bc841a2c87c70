"""Desk-scale training lab: synthetic multi-domain data, tiny trainable
models, component preparation with general-data blending, and reference
training on real mixtures.

Each domain owns a ground-truth coefficient vector over a feature space with
three kinds of coordinates: shared coordinates that every domain samples at
unit scale but assigns different target coefficients (so mixtures trade off a
compromise), domain-private coordinates sampled at a weaker scale only by the
owning domain, and foreign coordinates a domain does not sample at all. The
general dataset is an equal blend of all domain distributions; benchmarks are
held-out noiseless per-domain eval sets scored on a 0-100 scale. The
module constants NOISE_STD, OWN_STD, SHARED_TARGET_STD and OWN_TARGET_STD
hold the lab's calibration.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import dataclass, replace

import numpy as np

from .errors import SchemaMismatchError, TrainingError, ValidationError
from .eval_metrics import ScoreTable
from .merge_engine import MixtureRatio
from .tensor_store import ParameterSet, atomic_write

MODEL_FAMILIES = ("linear_regression", "logistic", "mlp_1hidden")
SCORING_RULES = ("exp_neg_mse", "accuracy")

# The lab's calibration: label noise of the training sets, the sampling scale
# of a domain's private coordinates, and the target norms per coordinate of
# the shared and the private blocks.
NOISE_STD = 0.05
OWN_STD = 0.45
SHARED_TARGET_STD = 0.6
OWN_TARGET_STD = 1.2


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
    scoring: str = "exp_neg_mse"

    def __post_init__(self):
        if self.scoring not in SCORING_RULES:
            raise ValidationError(f"benchmark {self.id!r}: unknown scoring {self.scoring!r}")


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
        if self.steps < 0 or self.step_size <= 0 or self.batch_size < 1:
            raise ValidationError("config: bad steps/step_size/batch_size")
        if self.model_family not in MODEL_FAMILIES:
            raise ValidationError(f"config: unknown model family {self.model_family!r}")


@dataclass
class ToyLab:
    """Everything one generated lab world contains."""

    candidates: list[CandidateDataset]
    general: CandidateDataset
    tasks: list[BenchmarkTask]
    true_params: dict[str, ParameterSet]

    def domain_of_benchmarks(self) -> dict[str, str]:
        return {task.id: task.domain for task in self.tasks}


def _rng_for(seed: int, *labels) -> np.random.Generator:
    """Independent substream per (seed, labels), stable across platforms and call order."""
    text = "\x1f".join(str(label) for label in labels)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    words = [int(seed) & 0xFFFFFFFF, (int(seed) >> 32) & 0xFFFFFFFF, int.from_bytes(digest, "big")]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def _shared_directions(n_domains: int, n_shared: int, rng: np.random.Generator) -> np.ndarray:
    """Unit directions for the domains' shared-coordinate targets.

    Orthonormal when the shared block is wide enough, so every domain sits at
    the same distance from the blend's compromise point and the general-trained
    base starts out balanced across domain benchmarks.
    """
    raw = rng.standard_normal((n_shared, max(n_domains, 1)))
    if n_shared >= n_domains:
        q, _ = np.linalg.qr(raw)
        dirs = q[:, :n_domains]
        signs = np.where(dirs[0] >= 0, 1.0, -1.0)  # pin QR sign convention
        return (dirs * signs).T
    return (raw / np.linalg.norm(raw, axis=0, keepdims=True)).T[:n_domains]


def make_domains(
    n_domains: int,
    d: int,
    seed: int,
    family: str = "linear_regression",
    examples_per_domain: int = 600,
    general_examples: int = 600,
    benchmark_examples: int = 256,
    shared_dims: int | None = None,
) -> ToyLab:
    """Generate candidate datasets, the general blend, and benchmark tasks."""
    if n_domains < 2 or d < 2:
        raise ValidationError("make_domains: need n_domains >= 2 and d >= 2")
    if family not in MODEL_FAMILIES:
        raise ValidationError(f"make_domains: unknown family {family!r}")
    n_shared = shared_dims if shared_dims is not None else max(1, round(0.3 * d))
    if not 1 <= n_shared <= d:
        raise ValidationError("make_domains: shared_dims out of range")
    domains = [f"dom{k}" for k in range(n_domains)]
    own_coords = {
        k: [n_shared + i for i in range(d - n_shared) if i % n_domains == k]
        for k in range(n_domains)
    }

    shared_dirs = _shared_directions(n_domains, n_shared, _rng_for(seed, "target", "shared"))
    scales = {}
    targets = {}
    for k, name in enumerate(domains):
        scale = np.zeros(d)
        scale[:n_shared] = 1.0
        scale[own_coords[k]] = OWN_STD
        scales[name] = scale
        target_rng = _rng_for(seed, "target", k)
        theta = np.zeros(d)
        theta[:n_shared] = SHARED_TARGET_STD * np.sqrt(n_shared) * shared_dirs[k]
        own = own_coords[k]
        if own:
            direction = target_rng.standard_normal(len(own))
            direction /= np.linalg.norm(direction)
            theta[own] = OWN_TARGET_STD * np.sqrt(len(own)) * direction
        targets[name] = theta

    def draw(name: str, count: int, rng: np.random.Generator, noiseless: bool):
        X = rng.standard_normal((count, d)) * scales[name]
        clean = X @ targets[name]
        if noiseless:
            signal = clean
        else:
            signal = clean + NOISE_STD * rng.standard_normal(count)
        if family == "logistic":
            y = (signal > 0.0).astype(np.float64)
        else:
            y = signal
        return X, y

    candidates = []
    for k, name in enumerate(domains):
        X, y = draw(name, examples_per_domain, _rng_for(seed, "candidate", k), noiseless=False)
        candidates.append(CandidateDataset(id=name, X=X, y=y))

    counts = [general_examples // n_domains] * n_domains
    for k in range(general_examples % n_domains):
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
    scoring = "accuracy" if family == "logistic" else "exp_neg_mse"
    for k, name in enumerate(domains):
        X, y = draw(name, benchmark_examples, _rng_for(seed, "benchmark", k), noiseless=True)
        tasks.append(BenchmarkTask(id=f"bench_{name}", domain=name, X=X, y=y, scoring=scoring))

    true_params = {
        name: ParameterSet.from_arrays(
            {"w": targets[name], "b": np.zeros(1)}, model_id=f"true_{name}"
        )
        for name in domains
    }
    return ToyLab(candidates=candidates, general=general, tasks=tasks, true_params=true_params)


# --- model families -------------------------------------------------------


def init_params(config: ComponentTrainingConfig, d: int) -> ParameterSet:
    """Small random initialization for the configured model family."""
    rng = _rng_for(config.seed, "init", config.model_family)
    if config.model_family in ("linear_regression", "logistic"):
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


def _family_of(params: ParameterSet) -> str:
    names = set(params.names())
    if names == {"w", "b"}:
        return "linear"
    if names == {"w1", "b1", "w2", "b2"}:
        return "mlp_1hidden"
    raise SchemaMismatchError(f"unrecognized model schema {sorted(names)}")


def _check_init(init: ParameterSet, model_family: str, dim: int) -> None:
    """Raise SchemaMismatchError unless ``init`` is a ``model_family`` model
    for ``dim``-dimensional inputs."""
    family = _family_of(init)
    if family != ("mlp_1hidden" if model_family == "mlp_1hidden" else "linear"):
        raise SchemaMismatchError(
            f"train: the initial model is {family}, but the config trains {model_family}"
        )
    shapes = {name: init.entries[name].shape for name in init.names()}
    if family == "linear":
        expected = {"w": (dim,), "b": (1,)}
    else:
        h = init.entries["w2"].size
        expected = {"w1": (dim, h), "b1": (h,), "w2": (h,), "b2": (1,)}
    if shapes != expected:
        raise SchemaMismatchError(
            f"train: the initial model's tensor shapes {shapes} do not fit "
            f"{dim}-dim inputs, which need {expected}"
        )


def predict_values(params: ParameterSet, X: np.ndarray) -> np.ndarray:
    """Raw model output (regression value / decision score) for inputs X."""
    family = _family_of(params)
    if family == "linear":
        w = params.entries["w"]
        if X.shape[1] != w.size:
            raise SchemaMismatchError(
                f"model expects {w.size}-dim inputs, got {X.shape[1]}"
            )
        return X @ w + params.entries["b"][0]
    w1 = params.entries["w1"]
    if X.shape[1] != w1.shape[0]:
        raise SchemaMismatchError(f"model expects {w1.shape[0]}-dim inputs, got {X.shape[1]}")
    hidden = np.tanh(X @ w1 + params.entries["b1"])
    return hidden @ params.entries["w2"] + params.entries["b2"][0]


def _loss_and_grads(arrays: dict, X: np.ndarray, y: np.ndarray, family: str):
    # Divergence shows up as inf/nan loss and is reported by train(); keep
    # numpy quiet about the overflow itself.
    with np.errstate(over="ignore", invalid="ignore"):
        return _loss_and_grads_raw(arrays, X, y, family)


def _loss_and_grads_raw(arrays: dict, X: np.ndarray, y: np.ndarray, family: str):
    m = X.shape[0]
    if family == "linear_regression":
        err = X @ arrays["w"] + arrays["b"][0] - y
        loss = 0.5 * float(err @ err) / m
        return loss, {"w": X.T @ err / m, "b": np.array([err.mean()])}
    if family == "logistic":
        z = X @ arrays["w"] + arrays["b"][0]
        # log(1 + e^z) - y z, computed stably
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
        p = 1.0 / (1.0 + np.exp(-z))
        err = p - y
        return loss, {"w": X.T @ err / m, "b": np.array([err.mean()])}
    hidden = np.tanh(X @ arrays["w1"] + arrays["b1"])
    out = hidden @ arrays["w2"] + arrays["b2"][0]
    err = out - y
    loss = 0.5 * float(err @ err) / m
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
    family = config.model_family
    _check_init(init, family, dim)
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
            loss, g = _loss_and_grads(arrays, ds.X, ds.y, family)
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
            loss, grads = _loss_and_grads(
                arrays, np.concatenate(xs), np.concatenate(ys), family
            )
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
    row = {}
    for task in tasks:
        values = predict_values(model, task.X)
        if task.scoring == "accuracy":
            predicted = (values > 0.0).astype(np.float64)
            row[task.id] = 100.0 * float(np.mean(predicted == task.y))
        else:
            mse = float(np.mean((values - task.y) ** 2))
            row[task.id] = 100.0 * float(np.exp(-mse))
    return row


def prepare_components(
    candidates: list[CandidateDataset],
    general: CandidateDataset,
    config: ComponentTrainingConfig,
) -> tuple[ParameterSet, list[ParameterSet]]:
    """Two-step protocol: train the shared base on general data, then one
    component per candidate on a (beta general, 1-beta candidate) blend."""
    base_config = replace(config, steps=config.base_steps or config.steps)
    start = init_params(config, general.X.shape[1])
    base = train([(general, 1.0)], start, base_config)
    base = base.copy(model_id="base")
    beta = config.general_mix_beta
    components = []
    for cand in candidates:
        trained = train([(general, beta), (cand, 1.0 - beta)], base, config)
        components.append(trained.copy(model_id=f"component_{cand.id}"))
    return base, components


def reference_mixture(
    candidates: list[CandidateDataset],
    general: CandidateDataset,
    ratio: MixtureRatio,
    beta: float,
) -> list[tuple[CandidateDataset, float]]:
    """Blend a searched mixture with general data the same way components do."""
    by_id = {c.id: c for c in candidates}
    missing = [c for c in ratio.candidate_ids if c not in by_id]
    if missing:
        raise ValidationError(f"reference_mixture: unknown candidates {missing}")
    mix = [(general, beta)]
    mix += [(by_id[cid], (1.0 - beta) * float(w)) for cid, w in ratio.as_dict().items()]
    return mix


def build_reference_set(
    candidates: list[CandidateDataset],
    general: CandidateDataset,
    ratios: list[MixtureRatio],
    base: ParameterSet,
    tasks: list[BenchmarkTask],
    config: ComponentTrainingConfig,
) -> ScoreTable:
    """Train one reference model per ratio from the base and score them all."""
    rows = {}
    for j, ratio in enumerate(ratios):
        mixture = reference_mixture(candidates, general, ratio, config.general_mix_beta)
        try:
            model = train(mixture, base, config)
        except TrainingError as exc:
            raise TrainingError(f"reference {j} (ratio {ratio.as_dict()}): {exc}") from exc
        rows[f"mix_{j:03d}"] = evaluate_model(model, tasks)
    return ScoreTable(rows=rows, domain_of={t.id: t.domain for t in tasks})


# --- persistence ----------------------------------------------------------


def save_lab(lab: ToyLab, path) -> None:
    """Persist a lab world as an .npz archive."""
    meta = {
        "candidates": [{"id": c.id} for c in lab.candidates],
        "tasks": [{"id": t.id, "domain": t.domain, "scoring": t.scoring} for t in lab.tasks],
        "true_domains": sorted(lab.true_params),
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
    for name in lab.true_params:
        arrays[f"true_{name}_w"] = lab.true_params[name].entries["w"]
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
    tasks = [
        BenchmarkTask(
            id=spec["id"],
            domain=spec["domain"],
            X=data[f"bench_{i}_X"],
            y=data[f"bench_{i}_y"],
            scoring=spec["scoring"],
        )
        for i, spec in enumerate(meta["tasks"])
    ]
    true_params = {
        name: ParameterSet.from_arrays(
            {"w": data[f"true_{name}_w"], "b": np.zeros(1)}, model_id=f"true_{name}"
        )
        for name in meta["true_domains"]
    }
    return ToyLab(candidates=candidates, general=general, tasks=tasks, true_params=true_params)
