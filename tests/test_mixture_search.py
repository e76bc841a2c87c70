"""Tests for simplex sampling, the boosted-tree predictor, and the search loop."""

import json

import numpy as np
import pytest

from demix.errors import SearchError, ValidationError
from demix.gbdt import BoostedTreesRegressor
from demix.mixture_search import SamplePlan, run_search, sample_simplex


def linear_objective(ratio):
    return 3.0 * ratio.weights[0] + ratio.weights[1]


# --- simplex sampling ---------------------------------------------------------


def test_one_dim_simplex_is_a_point():
    for r in sample_simplex(1, 5, seed=0):
        assert r.weights.tolist() == [1.0]


def test_samples_are_valid_ratios():
    for r in sample_simplex(4, 200, seed=1):
        assert np.all(r.weights >= 0.0)
        assert r.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_uniformity_matches_closed_form_dirichlet_facts():
    # Dirichlet(1,1,1): each coordinate has mean 1/3 and P(a_1 > 1/2) = 1/4.
    rows = np.stack([r.weights for r in sample_simplex(3, 100_000, seed=2)])
    assert np.allclose(rows.mean(axis=0), 1.0 / 3.0, atol=0.01)
    assert abs(float((rows[:, 0] > 0.5).mean()) - 0.25) <= 0.01


def test_sampling_is_deterministic_per_seed():
    a = sample_simplex(3, 10, seed=3)
    b = sample_simplex(3, 10, seed=3)
    assert all(np.array_equal(x.weights, y.weights) for x, y in zip(a, b))


# --- predictor ------------------------------------------------------------------


def fit(ratios, targets):
    X = np.stack([r.weights for r in ratios])
    return BoostedTreesRegressor().fit(X, np.array(targets, dtype=np.float64))


def test_constant_targets_predict_the_constant():
    train = sample_simplex(3, 10, seed=4)
    predictor = fit(train, [4.25] * len(train))
    for r in sample_simplex(3, 20, seed=5):
        assert predictor.predict(r.weights[None])[0] == pytest.approx(4.25, abs=1e-12)


def test_single_observation_repeated_predicts_it():
    r = sample_simplex(3, 1, seed=6)[0]
    predictor = fit([r, r], [2.0, 2.0])
    assert predictor.predict(r.weights[None])[0] == pytest.approx(2.0, abs=1e-12)


def test_heldout_r2_on_linear_target():
    train = sample_simplex(3, 64, seed=7)
    test = sample_simplex(3, 32, seed=8)
    predictor = fit(train, [linear_objective(r) for r in train])
    y = np.array([linear_objective(r) for r in test])
    yh = predictor.predict(np.stack([r.weights for r in test]))
    r2 = 1.0 - np.sum((y - yh) ** 2) / np.sum((y - y.mean()) ** 2)
    assert r2 >= 0.9


def test_prediction_is_deterministic_and_dimension_checked():
    train = sample_simplex(2, 16, seed=9)
    predictor = fit(train, [linear_objective(r) for r in train])
    probe = sample_simplex(2, 1, seed=10)[0]
    assert predictor.predict(probe.weights[None])[0] == predictor.predict(probe.weights[None])[0]
    with pytest.raises(ValidationError, match="2 features"):
        predictor.predict(sample_simplex(3, 1, seed=11)[0].weights[None])


def test_monotone_target_along_edge_mostly_monotone_predictions():
    # Piecewise-constant trees cannot be exactly monotone; allow one violation.
    train = sample_simplex(3, 96, seed=12)
    predictor = fit(train, [-r.weights[0] for r in train])
    ts = np.linspace(0.0, 1.0, 11)
    grid = np.stack([ts, (1 - ts) / 2, (1 - ts) / 2], axis=1)
    preds = predictor.predict(grid)
    violations = int(np.sum(np.diff(preds) > 1e-9))
    assert violations <= 1


def test_fit_requires_two_observations_and_finite_targets():
    r = sample_simplex(2, 1, seed=13)[0]
    with pytest.raises(ValidationError, match="at least 2"):
        fit([r], [1.0])
    with pytest.raises(ValidationError, match="finite"):
        fit([r, r], [1.0, float("nan")])


# --- run_search -------------------------------------------------------------------


def make_evaluator(fn):
    def evaluator(ratio):
        return {"objective": -fn(ratio)}

    return evaluator


def small_plan(**kw):
    defaults = dict(per_iteration_counts=[8, 4], final_candidate_pool=500, top_k_average=16, rng_seed=0)
    defaults.update(kw)
    return SamplePlan(**defaults)


def fast_predictor():
    return BoostedTreesRegressor(n_rounds=60)


def test_single_iteration_structural_contract():
    plan = SamplePlan(per_iteration_counts=[2], final_candidate_pool=10, top_k_average=2, rng_seed=1)
    best, transcript = run_search(
        make_evaluator(lambda r: float(r.weights[0])), ["a", "b", "c"], plan, fast_predictor()
    )
    assert len(transcript.evaluations) == 2
    assert best.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_constant_evaluator_all_scores_equal():
    plan = small_plan()
    best, transcript = run_search(make_evaluator(lambda r: 1.0), ["a", "b"], plan, fast_predictor())
    ranking_scores = {rec.ranking_score for rec in transcript.evaluations}
    assert len(ranking_scores) == 1
    assert best.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_evaluator_call_budget_is_exact():
    calls = []

    def evaluator(ratio):
        calls.append(ratio)
        return {"objective": float(ratio.weights[0])}

    plan = small_plan(per_iteration_counts=[5, 3, 2])
    run_search(evaluator, ["a", "b", "c"], plan, fast_predictor())
    assert len(calls) == 10


def test_search_is_reproducible():
    plan = small_plan(per_iteration_counts=[6, 3])
    evaluator = make_evaluator(lambda r: float(np.abs(r.weights - [0.7, 0.3]).sum()))
    best1, t1 = run_search(evaluator, ["a", "b"], plan, fast_predictor())
    best2, t2 = run_search(evaluator, ["a", "b"], plan, fast_predictor())
    assert np.array_equal(best1.weights, best2.weights)
    assert t1.to_jsonl() == t2.to_jsonl()
    assert [f.targets for f in t1.fits] == [f.targets for f in t2.fits]


def test_selection_actually_selects():
    plan = small_plan(per_iteration_counts=[8, 4, 4], final_candidate_pool=400)
    _, transcript = run_search(
        make_evaluator(lambda r: float(r.weights[0])), ["a", "b", "c"], plan, fast_predictor()
    )
    assert transcript.selections
    for sel in transcript.selections:
        assert sel.max_selected_prediction <= sel.median_pool_prediction


def test_later_iterations_concentrate_near_optimum():
    target = np.array([0.6, 0.3, 0.1])
    evaluator = make_evaluator(lambda r: float(np.abs(r.weights - target).sum()))
    plan = small_plan(per_iteration_counts=[16, 8], final_candidate_pool=2000, top_k_average=32)
    _, transcript = run_search(evaluator, ["a", "b", "c"], plan, fast_predictor())
    first = [r for r in transcript.evaluations if r.iteration == 0]
    last = [r for r in transcript.evaluations if r.iteration == 1]
    dist = lambda recs: np.mean([np.abs(r.ratio.weights - target).sum() for r in recs])
    assert dist(last) <= dist(first)


def test_ranking_scores_are_descending_ranks_of_final_population():
    plan = small_plan(per_iteration_counts=[4, 2], final_candidate_pool=100, top_k_average=4)
    evaluator = make_evaluator(lambda r: float(r.weights[0]))
    _, transcript = run_search(evaluator, ["a", "b"], plan, fast_predictor())
    scores = [rec.per_benchmark_scores["objective"] for rec in transcript.evaluations]
    got = [rec.ranking_score for rec in transcript.evaluations]
    # single benchmark: best score gets rank 1, and a full ranking sums to n(n+1)/2
    n = len(scores)
    for i in range(n):
        expected = sum(1 for s in scores if s > scores[i]) + (
            1 + sum(1 for s in scores if s == scores[i])
        ) / 2.0
        assert got[i] == pytest.approx(expected)
    assert sum(got) == pytest.approx(n * (n + 1) / 2)


def test_evaluator_failure_carries_the_ratio():
    def evaluator(ratio):
        raise RuntimeError("boom")

    with pytest.raises(SearchError) as err:
        run_search(evaluator, ["a", "b"], small_plan(), fast_predictor())
    assert err.value.ratio is not None


def test_transcript_jsonl_is_parseable():
    plan = small_plan(per_iteration_counts=[3, 2])
    _, transcript = run_search(make_evaluator(lambda r: 0.5), ["a", "b"], plan, fast_predictor())
    lines = transcript.to_jsonl().strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        doc = json.loads(line)
        assert set(doc) == {"index", "iteration", "ratio", "scores", "ranking_score"}


def test_plan_validation():
    with pytest.raises(ValidationError, match="positive"):
        SamplePlan(per_iteration_counts=[0])
    with pytest.raises(ValidationError, match="top_k_average"):
        SamplePlan(per_iteration_counts=[2], final_candidate_pool=10, top_k_average=11)


def test_plan_counts_after_the_first_fit_in_the_pool():
    # The first batch is drawn directly, so only later counts are bounded.
    SamplePlan(per_iteration_counts=[50, 20], final_candidate_pool=20, top_k_average=4)
    with pytest.raises(ValidationError, match="exceeds the pool"):
        SamplePlan(per_iteration_counts=[8, 50], final_candidate_pool=20, top_k_average=4)
    with pytest.raises(ValidationError, match="exceeds the pool"):
        SamplePlan(per_iteration_counts=[8, 4, 21], final_candidate_pool=20, top_k_average=4)
