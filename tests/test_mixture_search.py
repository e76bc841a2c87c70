"""Tests for simplex sampling, the boosted-tree predictor, and the search loop."""

import json

import numpy as np
import pytest

from demix import mixture_search
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


# The one benchmark every test evaluator scores, in a domain of its own.
OBJECTIVE = {"objective": "objective"}


def make_evaluator(fn):
    def evaluator(ratios):
        return [{"objective": -fn(ratio)} for ratio in ratios]

    return evaluator


def small_plan(**kw):
    defaults = dict(plan=[8, 4], pool=500, top_k=16, gbdt_rounds=60)
    defaults.update(kw)
    return SamplePlan(**defaults)


def test_single_iteration_structural_contract():
    plan = small_plan(plan=[2], pool=10, top_k=2)
    best, transcript = run_search(
        make_evaluator(lambda r: float(r.weights[0])), ["a", "b", "c"], plan, 1, OBJECTIVE
    )
    assert len(transcript.evaluations) == 2
    assert best.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_constant_evaluator_all_scores_equal():
    plan = small_plan()
    best, transcript = run_search(
        make_evaluator(lambda r: 1.0), ["a", "b"], plan, 0, OBJECTIVE
    )
    ranking_scores = {rec.ranking_score for rec in transcript.evaluations}
    assert len(ranking_scores) == 1
    assert best.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_evaluator_call_budget_is_exact():
    calls = []  # the ratios of each call

    def evaluator(ratios):
        calls.append(list(ratios))
        return [{"objective": float(ratio.weights[0])} for ratio in ratios]

    plan = small_plan(plan=[5, 3, 2])
    _, transcript = run_search(evaluator, ["a", "b", "c"], plan, 0, OBJECTIVE)
    # One call per plan entry, with that pass's ratios in transcript order.
    assert [len(call) for call in calls] == plan.plan
    for iteration, call in enumerate(calls):
        evaluated = [rec.ratio for rec in transcript.evaluations if rec.iteration == iteration]
        assert list(map(id, call)) == list(map(id, evaluated))


def test_search_is_reproducible():
    plan = small_plan(plan=[6, 3])
    evaluator = make_evaluator(lambda r: float(np.abs(r.weights - [0.7, 0.3]).sum()))
    best1, t1 = run_search(evaluator, ["a", "b"], plan, 0, OBJECTIVE)
    best2, t2 = run_search(evaluator, ["a", "b"], plan, 0, OBJECTIVE)
    assert np.array_equal(best1.weights, best2.weights)
    assert t1.to_jsonl() == t2.to_jsonl()


def test_selection_actually_selects(monkeypatch):
    scored = []  # every pool the search scores, with its predictions

    class RecordingRegressor(BoostedTreesRegressor):
        def predict(self, X):
            preds = super().predict(X)
            scored.append((np.array(X), preds))
            return preds

    monkeypatch.setattr(mixture_search, "BoostedTreesRegressor", RecordingRegressor)
    counts = [8, 4, 4]
    plan = small_plan(plan=counts, pool=400)
    _, transcript = run_search(
        make_evaluator(lambda r: float(r.weights[0])), ["a", "b", "c"], plan, 0, OBJECTIVE
    )
    assert len(scored) == len(counts)  # one pool per later iteration, one final
    for t in range(1, len(counts)):
        pool, preds = scored[t - 1]
        order = np.argsort(preds, kind="stable")
        picked, rest = order[: counts[t]], order[counts[t]:]
        evaluated = np.stack([r.ratio.weights for r in transcript.evaluations if r.iteration == t])
        np.testing.assert_allclose(evaluated, pool[picked], rtol=0.0, atol=1e-15)
        assert preds[picked].max() <= preds[rest].min()


@pytest.mark.parametrize("keep", [1, 7, 8, 9, 40, 199, 200])
def test_partial_selection_is_the_stable_argsort_prefix(keep):
    # Few distinct values, so every keep cuts through a run of ties; keep 8
    # ends exactly on the last of the eight lowest values, keep 9 and 40 cut
    # a tie run part-way.
    rng = np.random.default_rng(4)
    values = rng.integers(0, 6, size=200).astype(float)
    values[rng.permutation(200)[:8]] = -1.0
    values[values == 0.0] = 5.0
    expected = np.argsort(values, kind="stable")[:keep]
    assert np.array_equal(mixture_search._lowest(values, keep), expected)
    # Tied predictions of a fitted predictor: GBDT leaves repeat values.
    preds = np.round(rng.standard_normal(1000), 1)
    assert np.array_equal(mixture_search._lowest(preds, keep), np.argsort(preds, kind="stable")[:keep])


def test_later_iterations_concentrate_near_optimum():
    target = np.array([0.6, 0.3, 0.1])
    evaluator = make_evaluator(lambda r: float(np.abs(r.weights - target).sum()))
    plan = small_plan(plan=[16, 8], pool=2000, top_k=32)
    _, transcript = run_search(evaluator, ["a", "b", "c"], plan, 0, OBJECTIVE)
    first = [r for r in transcript.evaluations if r.iteration == 0]
    last = [r for r in transcript.evaluations if r.iteration == 1]
    dist = lambda recs: np.mean([np.abs(r.ratio.weights - target).sum() for r in recs])
    assert dist(last) <= dist(first)


def test_ranking_scores_are_descending_ranks_of_final_population():
    plan = small_plan(plan=[4, 2], pool=100, top_k=4)
    evaluator = make_evaluator(lambda r: float(r.weights[0]))
    _, transcript = run_search(evaluator, ["a", "b"], plan, 0, OBJECTIVE)
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


def failing_evaluator(bad_pass, bad_row, row_of_the_bad_ratio):
    """A lazy evaluator that yields the row ``row_of_the_bad_ratio()`` at row
    ``bad_row`` of pass ``bad_pass``; it records every call's ratios."""
    calls = []

    def evaluator(ratios):
        calls.append(list(ratios))
        for j, ratio in enumerate(ratios):
            if (len(calls) - 1, j) == (bad_pass, bad_row):
                yield row_of_the_bad_ratio()
            else:
                yield {"objective": float(ratio.weights[0])}

    return evaluator, calls


def boom():
    raise RuntimeError("boom")


def test_evaluator_failure_carries_the_ratio():
    # A row other than the first, in a pass other than the first.
    evaluator, calls = failing_evaluator(1, 2, boom)
    with pytest.raises(SearchError, match="boom") as err:
        run_search(evaluator, ["a", "b"], small_plan(), 0, OBJECTIVE)
    assert err.value.ratio is calls[1][2]
    assert isinstance(err.value.__cause__, RuntimeError)


def test_an_evaluator_that_changes_its_benchmark_set_is_a_search_error_naming_the_ratio():
    evaluator, calls = failing_evaluator(1, 0, lambda: {"another": 0.5})
    with pytest.raises(SearchError, match="evaluator changed its benchmark set mid-search") as err:
        run_search(evaluator, ["a", "b"], small_plan(), 0, OBJECTIVE)
    assert err.value.ratio is calls[1][0]


def test_a_search_error_of_the_evaluator_passes_through_unchanged():
    raised = SearchError("the evaluator's own")

    def fail():
        raise raised

    evaluator, _ = failing_evaluator(0, 2, fail)
    with pytest.raises(SearchError, match="the evaluator's own") as err:
        run_search(evaluator, ["a", "b"], small_plan(), 0, OBJECTIVE)
    assert err.value is raised and err.value.ratio is None


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_a_non_finite_score_carries_its_ratio(bad):
    evaluator, calls = failing_evaluator(0, 3, lambda: {"objective": bad})
    with pytest.raises(SearchError, match="invalid scores") as err:
        run_search(evaluator, ["a", "b"], small_plan(), 0, OBJECTIVE)
    assert err.value.ratio is calls[0][3]
    assert len(calls) == 1


def test_an_eager_evaluator_that_fails_names_the_first_ratio():
    calls = []

    def evaluator(ratios):
        calls.append(ratios)
        raise RuntimeError("boom")

    with pytest.raises(SearchError, match="boom") as err:
        run_search(evaluator, ["a", "b"], small_plan(), 0, OBJECTIVE)
    assert len(calls) == 1
    assert err.value.ratio is calls[0][0]


@pytest.mark.parametrize("extra", [-1, 1])
def test_a_wrong_number_of_rows_is_a_search_error(extra):
    def evaluator(ratios):
        return [{"objective": 0.5}] * (len(ratios) + extra)

    with pytest.raises(SearchError, match="too (few|many) rows for 8 ratios"):
        run_search(evaluator, ["a", "b"], small_plan(), 0, OBJECTIVE)


def test_transcript_jsonl_is_parseable():
    plan = small_plan(plan=[3, 2])
    _, transcript = run_search(make_evaluator(lambda r: 0.5), ["a", "b"], plan, 0, OBJECTIVE)
    lines = transcript.to_jsonl().strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        doc = json.loads(line)
        assert set(doc) == {"index", "iteration", "ratio", "scores", "ranking_score"}


def test_plan_validation():
    with pytest.raises(ValidationError, match="positive"):
        SamplePlan(plan=[0])
    with pytest.raises(ValidationError, match="top_k exceeds pool"):
        SamplePlan(plan=[2], pool=10, top_k=11)
    with pytest.raises(ValidationError, match="gbdt_rounds"):
        SamplePlan(gbdt_rounds=0)


def test_plan_counts_after_the_first_fit_in_the_pool():
    # The first batch is drawn directly, so only later counts are bounded.
    SamplePlan(plan=[50, 20], pool=20, top_k=4)
    with pytest.raises(ValidationError, match="exceeds the pool"):
        SamplePlan(plan=[8, 50], pool=20, top_k=4)
    with pytest.raises(ValidationError, match="exceeds the pool"):
        SamplePlan(plan=[8, 4, 21], pool=20, top_k=4)
