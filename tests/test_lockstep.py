"""The lockstep trainer against training one model at a time.

`toy_lab.train_lockstep` trains many models from one start with their
parameters stacked. Each model must come out bit for bit as the per-model
loop below trains it, and a diverging population must raise what that loop,
run over the mixtures in order, raises first. The loop and its batch
allocator are kept here as they were before the models were stacked.
"""

import numpy as np
import pytest

from demix import toy_lab
from demix.errors import TrainingError, ValidationError
from demix.merge_engine import MixtureRatio
from demix.mixture_search import sample_simplex
from demix.toy_lab import (
    CandidateDataset,
    ComponentTrainingConfig,
    init_params,
    make_domains,
    reference_mixture,
    train,
    train_lockstep,
)


# --- the per-model reference --------------------------------------------------------


def _forward(arrays, X):
    if "w" in arrays:
        return X @ arrays["w"] + arrays["b"][0], None
    hidden = np.tanh(X @ arrays["w1"] + arrays["b1"])
    return hidden @ arrays["w2"] + arrays["b2"][0], hidden


@np.errstate(over="ignore", invalid="ignore")
def _loss_and_grads(arrays, X, y):
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


def per_model_allocations(weights, batch, steps, over_allocated=None):
    """One model's allocations; ``over_allocated`` collects the steps that
    took rows back."""
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
            if over_allocated is not None:
                over_allocated.append(step)
            frac = raw - take
            for i in np.argsort(frac, kind="stable"):
                if short == 0:
                    break
                if take[i] > 0:
                    take[i] -= 1
                    short += 1
        served += take
        yield take


def per_model_train(dataset_mixture, init, config):
    """One model, trained the way `train` trained it before lockstep."""
    weights = MixtureRatio(
        weights=[w for _, w in dataset_mixture], candidate_ids=[ds.id for ds, _ in dataset_mixture]
    ).weights
    arrays = {name: init.entries[name].copy() for name in init.names()}
    if config.steps == 0:
        return init.copy()
    live = [(ds, float(w)) for (ds, w), ok in zip(dataset_mixture, weights > 0.0) if ok]
    live_weights = np.array([w for _, w in live])
    live_weights = live_weights / live_weights.sum()
    cursors = np.zeros(len(live), dtype=np.int64)
    batches = per_model_allocations(live_weights, config.batch_size, config.steps)
    for step in range(config.steps):
        take = next(batches)
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
        with np.errstate(over="ignore", invalid="ignore"):
            for name in arrays:
                arrays[name] = arrays[name] - config.step_size * grads[name]
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise TrainingError(f"training diverged: non-finite {name!r} after final step")
    return toy_lab.ParameterSet.from_arrays(arrays)


def first_failure(mixtures, init, config):
    """The index and message of the first mixture whose training fails, one
    model at a time, or None."""
    for index, mixture in enumerate(mixtures):
        try:
            per_model_train(mixture, init, config)
        except TrainingError as exc:
            return index, str(exc)
    return None


def assert_bit_identical(models, expected):
    assert len(models) == len(expected)
    for got, want in zip(models, expected):
        assert got.names() == want.names()
        for name in want.names():
            assert got.entries[name].shape == want.entries[name].shape
            assert got.entries[name].tobytes() == want.entries[name].tobytes(), name


# --- allocations ----------------------------------------------------------------------


def _assert_allocations_match(rows, batch, steps):
    lockstep = np.stack(list(toy_lab._batch_allocations(rows, batch, steps)))
    reached = []
    for r, row in enumerate(rows):
        live = row > 0.0
        alone = np.stack(list(per_model_allocations(row[live], batch, steps, reached)))
        assert np.array_equal(lockstep[:, r, live], alone)
        assert not lockstep[:, r, ~live].any()
    return reached


def test_lockstep_allocations_match_the_per_model_allocator():
    rng = np.random.default_rng(0)
    for n in (2, 3, 9, 12):
        rows = rng.dirichlet(np.full(n, 0.5), size=40)
        rows[rng.random(rows.shape) < 0.3] = 0.0
        rows[np.arange(0, 40, 5), 0] = 1.0  # some rows with one live dataset
        rows[~rows.any(axis=1), 0] = 1.0
        rows /= rows.sum(axis=1, keepdims=True)
        _assert_allocations_match(rows, batch=int(rng.integers(1, 100)), steps=50)


def test_lockstep_allocations_match_on_rows_that_do_not_sum_to_one():
    # A row summing above 1 over-allocates; this one needs a single take-back
    # pass each time, so the per-model loop still allocates as it does. One
    # summing below 1 leaves more rows over than it has live datasets.
    rows = np.array([[0.2, 0.2, 0.2, 0.2, 0.202], [0.0, 0.3, 0.6, 0.0, 0.0],
                     [0.5, 0.25, 0.25, 0.0, 0.0]])
    reached = _assert_allocations_match(rows, batch=64, steps=40)
    assert 9 in reached


def test_lockstep_allocations_match_on_a_row_that_sums_to_one_and_over_allocates():
    # At step 43 three small datasets are served ahead of their targets. No
    # dataset gets fewer than 0 rows, so the other two get 3, one over the batch.
    rows = np.array([[0.006738284228780088, 0.7272818587400309, 0.0, 0.0, 0.007190128851403264,
                      0.25069136950835574, 0.008098358671429969]])
    reached = _assert_allocations_match(rows, batch=2, steps=60)
    assert 43 in reached
    assert (np.stack(list(toy_lab._batch_allocations(rows, 2, 60))).sum(axis=2) == 2).all()


def test_the_take_back_repeats_until_the_batch_fits():
    # This row sums above 1, so its floors can run more rows over the batch
    # than it has datasets with rows, and one pass does not take enough back.
    takes = np.stack(list(toy_lab._batch_allocations(np.array([[0.3, 0.702, 0.0]]), 64, 40)))
    assert (takes.sum(axis=2) == 64).all()


def test_every_allocation_of_a_row_that_sums_to_one_fills_the_batch_exactly():
    rng = np.random.default_rng(24)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        batch = int(rng.integers(1, 100))
        rows = rng.dirichlet(np.full(n, 0.5), size=200)
        rows[rng.random(rows.shape) < 0.3] = 0.0
        rows[~rows.any(axis=1), 0] = 1.0
        rows /= rows.sum(axis=1, keepdims=True)
        takes = np.stack(list(toy_lab._batch_allocations(rows, batch, 300)))
        assert (takes.sum(axis=2) == batch).all()
        assert (takes >= 0).all() and not takes[:, rows == 0.0].any()


# --- training, bit for bit --------------------------------------------------------------


@pytest.fixture(scope="module")
def default_lab():
    return make_domains(3, 13, seed=0)


def _reference_mixtures(lab, count, seed, beta=0.5):
    ids = [c.id for c in lab.candidates]
    ratios = sample_simplex(len(ids), count, seed, candidate_ids=ids)
    ratios += [MixtureRatio(weights=one_hot, candidate_ids=ids) for one_hot in np.eye(len(ids))]
    return [reference_mixture(lab.candidates, lab.general, ratio, beta) for ratio in ratios]


@pytest.mark.parametrize("family", ["linear_regression", "mlp_1hidden"])
@pytest.mark.parametrize("batch_size", [1, 64])
@pytest.mark.parametrize("count", [1, 3, 24])
def test_lockstep_training_is_the_per_model_training_bit_for_bit(
    default_lab, family, batch_size, count
):
    # At batch size 1 each step draws its one row from a single dataset.
    config = ComponentTrainingConfig(
        seed=3, steps=40, step_size=0.2 if family == "linear_regression" else 0.1,
        model_family=family, batch_size=batch_size,
    )
    init = init_params(config, 13)
    # count - 1 sampled mixtures, then a one-hot one, whose zero weights mask datasets.
    mixtures = _reference_mixtures(default_lab, count, seed=count)
    mixtures = mixtures[: count - 1] + mixtures[-1:]
    models = train_lockstep(mixtures, init, config)
    assert_bit_identical(models, [per_model_train(mix, init, config) for mix in mixtures])
    if count == 1:
        assert_bit_identical([train(mixtures[0], init, config)], models)


def test_lockstep_training_in_many_blocks_of_the_wide_lab_is_bit_for_bit(monkeypatch):
    lab = make_domains(8, 256, seed=1)
    config = ComponentTrainingConfig(
        seed=1, steps=12, step_size=0.1, model_family="mlp_1hidden", hidden_units=64
    )
    init = init_params(config, 256)
    mixtures = _reference_mixtures(lab, 16, seed=7)  # 16 sampled and 8 one-hot
    blocks = []
    block_trainer = toy_lab._train_block

    def counted(datasets, weights, *args):
        blocks.append(len(weights))
        return block_trainer(datasets, weights, *args)

    monkeypatch.setattr(toy_lab, "_train_block", counted)
    models = train_lockstep(mixtures, init, config)
    assert len(blocks) > 1 and sum(blocks) == 24
    assert_bit_identical(models, [per_model_train(mix, init, config) for mix in mixtures])


@pytest.mark.parametrize("budget", [1, 20_000, 200_000])
def test_lockstep_training_is_bit_for_bit_at_any_block_budget(default_lab, monkeypatch, budget):
    # From one model per block and one step per gather to all 12 models in
    # one block and two steps per gather, the last gather taking one.
    config = ComponentTrainingConfig(seed=5, steps=37)
    init = init_params(config, 13)
    mixtures = _reference_mixtures(default_lab, 9, seed=11)
    monkeypatch.setattr(toy_lab, "TRAIN_BLOCK_BYTES", budget)
    models = train_lockstep(mixtures, init, config)
    assert_bit_identical(models, [per_model_train(mix, init, config) for mix in mixtures])


def test_zero_steps_return_copies_of_the_start(default_lab):
    config = ComponentTrainingConfig(seed=2, steps=0)
    init = init_params(config, 13)
    models = train_lockstep(_reference_mixtures(default_lab, 2, seed=1), init, config)
    assert_bit_identical(models, [init] * 5)
    assert all(model.entries["w"] is not init.entries["w"] for model in models)


def test_the_mixtures_must_blend_the_same_datasets(default_lab):
    config = ComponentTrainingConfig(seed=2, steps=3)
    init = init_params(config, 13)
    a, b, c = default_lab.candidates
    with pytest.raises(ValidationError, match="same datasets in the same order"):
        train_lockstep([[(a, 0.5), (b, 0.5)], [(a, 0.5), (c, 0.5)]], init, config)
    with pytest.raises(ValidationError, match="same datasets in the same order"):
        train_lockstep([[(a, 0.5), (b, 0.5)], [(a, 1.0)]], init, config)


# --- divergence -----------------------------------------------------------------------------


def _loud_mixtures():
    """A quiet and a loud dataset; the more weight on the loud one, the sooner
    training at step size 1 diverges, and the quiet one alone does not."""
    quiet, other = make_domains(2, 8, seed=1).candidates
    loud = CandidateDataset(id="loud", X=4.0 * other.X, y=4.0 * other.y)
    return [[(quiet, 1.0 - w), (loud, w)] for w in (0.0, 0.3, 0.9, 0.0)]


@pytest.mark.parametrize("one_model_per_block", [False, True])
def test_lockstep_divergence_reports_the_first_diverging_mixture(monkeypatch, one_model_per_block):
    if one_model_per_block:
        monkeypatch.setattr(toy_lab, "TRAIN_BLOCK_BYTES", 1)
    config = ComponentTrainingConfig(seed=1, steps=300, step_size=1.0)
    init = init_params(config, 8)
    mixtures = _loud_mixtures()
    failures = [first_failure([mix], init, config) for mix in mixtures]
    steps = [int(f[1].split("step ")[1].split(":")[0]) if f else None for f in failures]
    # Mixture 2 diverges before mixture 1 does, and mixture 0 never does.
    assert steps[0] is None and steps[3] is None and steps[2] < steps[1]
    with pytest.raises(TrainingError) as caught:
        train_lockstep(mixtures, init, config)
    assert (caught.value.model, str(caught.value)) == first_failure(mixtures, init, config)
    assert str(caught.value).endswith("loss=inf")


def test_lockstep_divergence_after_the_final_step_is_reported_as_before():
    # One step at a step size that overflows the update where the loud
    # dataset makes the gradient large.
    config = ComponentTrainingConfig(seed=4, steps=1, step_size=1e308)
    init = init_params(config, 8)
    mixtures = _loud_mixtures()
    expected = first_failure(mixtures, init, config)
    assert expected is not None and "after final step" in expected[1]
    with pytest.raises(TrainingError) as caught:
        train_lockstep(mixtures, init, config)
    assert (caught.value.model, str(caught.value)) == expected
