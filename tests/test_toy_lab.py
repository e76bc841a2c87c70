"""Tests for the desk-scale training lab."""

from dataclasses import replace

import numpy as np
import pytest

from demix.errors import SchemaMismatchError, TrainingError, ValidationError
from demix.merge_engine import MixtureRatio
from demix.pipeline import score_table
from demix.tensor_store import ParameterSet
from demix.toy_lab import (
    SHARED_DIMS,
    CandidateDataset,
    ComponentTrainingConfig,
    check_lab_size,
    evaluate_model,
    init_params,
    load_lab,
    make_domains,
    prepare_components,
    save_lab,
    train,
    trained_scores,
)


@pytest.fixture(scope="module")
def default_lab():
    return make_domains(3, 13, seed=0)


@pytest.fixture(scope="module")
def prepared(default_lab):
    config = ComponentTrainingConfig(seed=0)
    base, components = prepare_components(default_lab.candidates, default_lab.general, config)
    return config, base, components


# --- generation -----------------------------------------------------------------


def test_generation_is_deterministic():
    a = make_domains(3, 13, seed=5)
    b = make_domains(3, 13, seed=5)
    for ca, cb in zip(a.candidates + [a.general], b.candidates + [b.general]):
        assert np.array_equal(ca.X, cb.X)
        assert np.array_equal(ca.y, cb.y)
    assert any(
        not np.array_equal(ca.X, cb.X)
        for ca, cb in zip(a.candidates, make_domains(3, 13, seed=6).candidates)
    )


def test_generation_validates_sizes():
    with pytest.raises(ValidationError):
        make_domains(1, 13, seed=0)
    with pytest.raises(ValidationError):
        make_domains(3, 1, seed=0)


def test_a_lab_larger_than_memory_is_refused_before_allocating():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match=rf"n_domains = {2**40} and feature_dim = 13"):
            check_lab_size(2**40, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


@pytest.mark.parametrize("n_domains, d", [(3, 13), (8, 256)])
def test_each_domain_samples_the_shared_block_and_every_n_th_coordinate_after_it(n_domains, d):
    lab = make_domains(n_domains, d, seed=0)
    for k, candidate in enumerate(lab.candidates):
        owned = list(range(SHARED_DIMS)) + list(range(SHARED_DIMS + k, d, n_domains))
        assert np.flatnonzero(np.any(candidate.X != 0.0, axis=0)).tolist() == owned


def test_ground_truth_scores_maximally_on_its_own_benchmark(default_lab):
    # Benchmarks are noiseless, so least squares on a benchmark recovers the
    # domain's ground truth exactly.
    for task in default_lab.tasks:
        theta = np.linalg.lstsq(task.X, task.y, rcond=None)[0]
        truth = ParameterSet.from_arrays({"w": theta, "b": np.zeros(1)})
        scores = evaluate_model(truth, [task])
        assert scores[task.id] == pytest.approx(100.0, abs=1e-9)


def test_save_load_lab_roundtrip(tmp_path, default_lab):
    path = tmp_path / "lab.npz"
    save_lab(default_lab, path)
    loaded = load_lab(path)
    assert [c.id for c in loaded.candidates] == [c.id for c in default_lab.candidates]
    for ca, cb in zip(loaded.candidates, default_lab.candidates):
        assert np.array_equal(ca.X, cb.X)
    for ta, tb in zip(loaded.tasks, default_lab.tasks):
        assert np.array_equal(ta.y, tb.y)


# --- training ---------------------------------------------------------------------


def test_zero_steps_returns_init_bit_exact(default_lab):
    config = ComponentTrainingConfig(seed=2, steps=0)
    start = init_params(config, 13)
    out = train([(default_lab.general, 1.0)], start, config)
    for name in start.names():
        assert np.array_equal(out.entries[name], start.entries[name])


def test_zero_base_steps_leave_the_base_untrained(default_lab):
    config = ComponentTrainingConfig(seed=2, steps=20, base_steps=0)
    base, _ = prepare_components(default_lab.candidates, default_lab.general, config)
    start = init_params(config, 13)
    for name in start.names():
        assert np.array_equal(base.entries[name], start.entries[name])


def test_full_batch_quadratic_descent_is_monotone(default_lab):
    # A batch the size of a one-dataset mixture's dataset holds every row
    # each step, so the mini-batch step is plain gradient descent.
    ds = default_lab.candidates[0]
    Z = np.hstack([ds.X, np.ones((len(ds), 1))])
    L = float(np.linalg.eigvalsh(Z.T @ Z / len(ds))[-1])  # Lipschitz constant of the gradient
    config = ComponentTrainingConfig(seed=3, step_size=0.9 / L, batch_size=len(ds))
    start = init_params(config, 13)

    def half_mse(model):
        err = ds.X @ model.entries["w"] + model.entries["b"][0] - ds.y
        return 0.5 * float(err @ err) / len(ds)

    losses = [half_mse(train([(ds, 1.0)], start, replace(config, steps=k))) for k in range(81)]
    assert losses[-1] < losses[0]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_degenerate_mixture_equals_direct_training(default_lab):
    d0, d1 = default_lab.candidates[:2]
    config = ComponentTrainingConfig(seed=4, steps=40)
    start = init_params(config, 13)
    direct = train([(d0, 1.0)], start, config)
    degenerate = train([(d0, 1.0), (d1, 0.0)], start, config)
    for name in direct.names():
        assert np.array_equal(direct.entries[name], degenerate.entries[name])


def test_training_is_deterministic(default_lab):
    config = ComponentTrainingConfig(seed=5, steps=30)
    start = init_params(config, 13)
    mixture = [(default_lab.candidates[0], 0.3), (default_lab.candidates[1], 0.7)]
    one = train(mixture, start, config)
    two = train(mixture, start, config)
    for name in one.names():
        assert np.array_equal(one.entries[name], two.entries[name])


def test_divergence_raises_with_step_index(default_lab):
    ds = default_lab.candidates[0]
    config = ComponentTrainingConfig(seed=6, steps=200, step_size=50.0)
    with pytest.raises(TrainingError, match=r"diverged at step \d+: loss="):
        train([(ds, 1.0)], init_params(config, 13), config)


def test_dimension_mismatch_rejected(default_lab):
    other = make_domains(2, 8, seed=7).candidates[0]
    narrow = CandidateDataset(id="narrow", X=other.X, y=other.y)
    config = ComponentTrainingConfig(seed=7, steps=5)
    with pytest.raises(SchemaMismatchError):
        train(
            [(default_lab.candidates[0], 0.5), (narrow, 0.5)],
            init_params(config, 13),
            config,
        )


@pytest.mark.parametrize(
    "arrays",
    [
        {"w": np.zeros(8), "b": np.zeros(1)},
        {"w1": np.zeros((13, 4)), "b1": np.zeros(4), "w2": np.zeros(5), "b2": np.zeros(1)},
        {"w": np.zeros(13)},
    ],
    ids=["other-input-dim", "inconsistent-hidden-units", "unknown-schema"],
)
def test_evaluate_rejects_a_model_that_does_not_fit_the_tasks(default_lab, arrays):
    with pytest.raises(SchemaMismatchError, match="evaluate: the model"):
        evaluate_model(ParameterSet.from_arrays(arrays), default_lab.tasks)


def test_mlp_family_trains_and_scores():
    lab = make_domains(2, 8, seed=8)
    config = ComponentTrainingConfig(seed=8, steps=120, step_size=0.1, model_family="mlp_1hidden")
    model = train([(lab.candidates[0], 1.0)], init_params(config, 8), config)
    scores = evaluate_model(model, lab.tasks)
    assert all(0.0 <= v <= 100.0 for v in scores.values())


# --- component preparation ----------------------------------------------------------


def test_components_share_schema_and_count(default_lab, prepared):
    _, base, components = prepared
    assert len(components) == len(default_lab.candidates)
    for comp in components:
        assert comp.schema() == base.schema()


def test_beta_one_components_are_identical(default_lab):
    config = ComponentTrainingConfig(seed=9, general_mix_beta=1.0, steps=40)
    _, components = prepare_components(default_lab.candidates, default_lab.general, config)
    first = components[0]
    for comp in components[1:]:
        for name in first.names():
            assert np.array_equal(comp.entries[name], first.entries[name])


def test_component_deltas_land_in_small_update_regime(default_lab, prepared):
    # Normalized movement sum|comp - base| / (sum|comp| + sum|base|), in [0, 1].
    _, base, components = prepared
    for comp in components:
        moved = sum(np.abs(comp.entries[n] - base.entries[n]).sum() for n in base.names())
        scale = sum(np.abs(comp.entries[n]).sum() + np.abs(base.entries[n]).sum() for n in base.names())
        assert moved / scale < 0.2


def test_component_beats_base_on_its_own_domain(default_lab, prepared):
    _, base, components = prepared
    base_scores = evaluate_model(base, default_lab.tasks)
    for cand, comp in zip(default_lab.candidates, components):
        comp_scores = evaluate_model(comp, default_lab.tasks)
        bench = f"bench_{cand.id}"
        assert comp_scores[bench] >= base_scores[bench]


def test_base_domain_scores_are_balanced(default_lab, prepared):
    # measured over seeds 0-4 during calibration: max-min gap 0.9 - 19.8
    _, base, _ = prepared
    scores = list(evaluate_model(base, default_lab.tasks).values())
    assert max(scores) - min(scores) < 25.0


# --- references -----------------------------------------------------------------------


def test_reference_set_shape_and_determinism(default_lab, prepared):
    from demix.mixture_search import sample_simplex

    config, base, _ = prepared
    ids = [c.id for c in default_lab.candidates]
    ratios = sample_simplex(3, 2, seed=10, candidate_ids=ids)

    def trained(ratios):
        return score_table(trained_scores(default_lab, base, config, ratios), default_lab.tasks)

    one = trained(ratios)
    two = trained(ratios)
    assert one.models() == ["mix_000", "mix_001"]
    assert one.rows == two.rows
    duplicated = trained([ratios[0], ratios[0]])
    assert duplicated.rows["mix_000"] == duplicated.rows["mix_001"]


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 1.0])
def test_trained_scores_at_a_one_hot_ratio_are_the_components_scores(default_lab, beta):
    config = ComponentTrainingConfig(seed=2, steps=40, base_steps=40, general_mix_beta=beta)
    base, components = prepare_components(default_lab.candidates, default_lab.general, config)
    ids = [c.id for c in default_lab.candidates]
    ratios = [MixtureRatio(weights=one_hot, candidate_ids=ids) for one_hot in np.eye(len(ids))]
    rows = trained_scores(default_lab, base, config, ratios)
    assert rows == [evaluate_model(component, default_lab.tasks) for component in components]


def test_trained_scores_name_the_ratio_that_diverged(default_lab, prepared):
    _, base, _ = prepared
    config = ComponentTrainingConfig(seed=6, steps=200, step_size=50.0)
    ratio = MixtureRatio(weights=[0.5, 0.25, 0.25], candidate_ids=["dom0", "dom1", "dom2"])
    with pytest.raises(TrainingError, match=r"ratio \{'dom0': 0\.5, 'dom1': 0\.25, 'dom2': 0\.25\}"):
        trained_scores(default_lab, base, config, [ratio])


def test_prepare_components_names_the_model_that_diverged(default_lab):
    config = ComponentTrainingConfig(seed=6, steps=200, step_size=50.0)
    with pytest.raises(TrainingError, match=r"^training the base: training diverged at step") as exc:
        prepare_components(default_lab.candidates, default_lab.general, config)
    assert exc.value.model == 0
    # Ten times the features of dom2 make its steps ten times too steep for
    # the default step size, while the base and the other components train.
    dom0, dom1, dom2 = default_lab.candidates
    steep = CandidateDataset(id=dom2.id, X=10.0 * dom2.X, y=dom2.y)
    config = ComponentTrainingConfig(seed=6, steps=200, base_steps=20)
    with pytest.raises(TrainingError, match=r"^training component dom2: training diverged") as exc:
        prepare_components([dom0, dom1, steep], default_lab.general, config)
    assert exc.value.model == 2
