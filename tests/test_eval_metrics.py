"""Tests for Spearman, top-quartile, capability recovery and rank metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from demix.errors import MetricError, ValidationError
from demix.eval_metrics import (
    ScoreTable,
    capability_recovery,
    consistency_report,
    midranks,
    rank_table,
    spearman_rho,
    top_quartile_rho,
)


def brute_force_spearman(xs, ys):
    """Rank-then-Pearson with average ranks, written independently."""

    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        out = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return out

    rx, ry = ranks(list(xs)), ranks(list(ys))
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    dx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    dy = math.sqrt(sum((b - my) ** 2 for b in ry))
    return num / (dx * dy)


def test_identical_and_reversed_rankings():
    xs = [3.0, 1.0, 2.0, 10.0]
    assert spearman_rho(xs, xs) == 1.0
    assert spearman_rho(xs, [-v for v in xs]) == -1.0


def test_documented_case_is_point_eight():
    assert spearman_rho([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]) == pytest.approx(0.8, abs=1e-15)


def test_matches_brute_force_oracle_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 20))
        xs = rng.integers(0, 6, size=n).astype(float)  # heavy ties
        ys = rng.integers(0, 6, size=n).astype(float)
        if np.all(xs == xs[0]) or np.all(ys == ys[0]):
            continue
        assert spearman_rho(xs, ys) == pytest.approx(brute_force_spearman(xs, ys), abs=1e-12)


def test_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    xs = rng.standard_normal(25)
    ys = rng.standard_normal(25)
    rho = spearman_rho(xs, ys)
    assert spearman_rho(np.exp(xs), ys) == pytest.approx(rho, abs=1e-12)
    assert spearman_rho(xs, 3.0 * ys + 7.0) == pytest.approx(rho, abs=1e-12)


def test_degenerate_inputs_raise():
    with pytest.raises(MetricError, match="at least 2"):
        spearman_rho([1.0], [2.0])
    with pytest.raises(MetricError, match="degenerate ranking"):
        spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_midranks_tie_averaging():
    assert list(midranks([10.0, 10.0, 5.0])) == [2.5, 2.5, 1.0]


# --- top quartile -------------------------------------------------------------


def test_top_quartile_identity_and_swap():
    ref = np.arange(8.0)
    assert top_quartile_rho(ref, ref.copy()) == 1.0
    swapped = ref.copy()
    swapped[[6, 7]] = ref[[7, 6]]  # swap the top two
    assert top_quartile_rho(ref, swapped) == -1.0


def test_top_quartile_matches_brute_force_restriction():
    rng = np.random.default_rng(2)
    for _ in range(50):
        ref = rng.integers(0, 6, size=16).astype(float)  # ties go to the lower index
        prox = rng.standard_normal(16)
        q = math.ceil(len(ref) / 4)
        chosen = sorted(range(len(ref)), key=lambda i: (-ref[i], i))[:q]
        if len({ref[i] for i in chosen}) < 2:
            continue
        expected = brute_force_spearman([ref[i] for i in chosen], [prox[i] for i in chosen])
        assert top_quartile_rho(ref, prox) == pytest.approx(expected, abs=1e-12)


def test_top_quartile_needs_eight_models():
    ref = np.arange(7.0)
    with pytest.raises(MetricError, match="at least 8"):
        top_quartile_rho(ref, ref.copy())


def test_top_quartile_needs_vectors_of_one_length():
    with pytest.raises(MetricError, match="equal-length"):
        top_quartile_rho(np.arange(8.0), np.arange(9.0))


# --- capability recovery --------------------------------------------------------


def test_capability_recovery_cases():
    assert capability_recovery(50.0, 50.0) == 1.0
    assert capability_recovery(0.85 * 61.0, 61.0) == pytest.approx(0.85, rel=1e-12)
    assert capability_recovery(42.0, 50.0) == pytest.approx(0.84, rel=1e-12)
    # degree-0 homogeneity under joint scaling
    assert capability_recovery(4.2, 5.0) == pytest.approx(capability_recovery(42.0, 50.0), rel=1e-12)
    with pytest.raises(MetricError, match="nonpositive"):
        capability_recovery(1.0, 0.0)
    assert capability_recovery([1.0, 3.0], [2.0, 4.0]).tolist() == [0.5, 0.75]
    with pytest.raises(MetricError, match="nonpositive reference average -1.0"):
        capability_recovery([1.0, 1.0], [2.0, -1.0])


# --- rank metrics ----------------------------------------------------------------


def two_model_table(scores_a, scores_b):
    benchmarks = [f"g{i}" for i in range(len(scores_a))]
    return ScoreTable(
        rows={"a": dict(zip(benchmarks, scores_a)), "b": dict(zip(benchmarks, scores_b))},
        domain_of={b: f"dom{i}" for i, b in enumerate(benchmarks)},
    )


def test_macro_rank_winner_takes_one():
    table = two_model_table([9.0, 8.0, 7.0], [1.0, 2.0, 3.0])
    per_domain, macro = rank_table(table)["a"]
    assert set(per_domain.values()) == {1.0}
    assert macro == 1.0


def test_macro_rank_full_tie_averages():
    table = two_model_table([5.0, 5.0], [5.0, 5.0])
    per_domain, macro = rank_table(table)["a"]
    assert set(per_domain.values()) == {1.5}
    assert macro == 1.5


def brute_force_domain_ranks(table: ScoreTable):
    """Independent oracle: per-domain tie-averaged ranks from scratch."""
    models = table.models()
    out = {m: {} for m in models}
    for domain in table.domains():
        benches = [b for b in table.benchmarks() if table.domain_of[b] == domain]
        avgs = {m: sum(table.rows[m][b] for b in benches) / len(benches) for m in models}
        for m in models:
            better = sum(1 for o in models if avgs[o] > avgs[m])
            equal = sum(1 for o in models if avgs[o] == avgs[m])
            out[m][domain] = better + (equal + 1) / 2.0
    return out


def test_macro_rank_matches_brute_force_on_random_tables():
    rng = np.random.default_rng(3)
    for _ in range(30):
        models = [f"m{i}" for i in range(4)]
        benches = {f"b{j}": f"dom{j % 3}" for j in range(6)}
        table = ScoreTable(
            rows={m: {b: float(rng.integers(0, 5)) for b in benches} for m in models},
            domain_of=benches,
        )
        expected = brute_force_domain_ranks(table)
        ranked = rank_table(table)
        for m in models:
            assert ranked[m][0] == pytest.approx(expected[m])
            assert ranked[m][1] == pytest.approx(np.mean(list(expected[m].values())))


def test_rank_sum_conservation():
    rng = np.random.default_rng(4)
    models = [f"m{i}" for i in range(7)]
    benches = {f"b{j}": f"dom{j % 2}" for j in range(4)}
    table = ScoreTable(
        rows={m: {b: float(rng.integers(0, 3)) for b in benches} for m in models},
        domain_of=benches,
    )
    k = len(models)
    ranked = rank_table(table)
    for domain in table.domains():
        total = sum(ranked[m][0][domain] for m in models)
        assert total == pytest.approx(k * (k + 1) / 2)


def test_score_table_validation():
    with pytest.raises(ValidationError, match="different benchmark set"):
        ScoreTable(rows={"a": {"x": 1.0}, "b": {"y": 1.0}}, domain_of={"x": "d", "y": "d"})
    with pytest.raises(ValidationError, match="missing domain"):
        ScoreTable(rows={"a": {"x": 1.0}}, domain_of={})
    with pytest.raises(ValidationError, match="no benchmarks"):
        ScoreTable(rows={"a": {}}, domain_of={})
    with pytest.raises(ValidationError, match="no models"):
        ScoreTable(rows={}, domain_of={})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_score_table_rejects_non_finite_scores(bad):
    with pytest.raises(ValidationError, match="non-finite"):
        ScoreTable(rows={"a": {"x": bad}}, domain_of={"x": "d"})
    with pytest.raises(ValidationError, match="non-finite score for 'b'/'y'"):
        ScoreTable(rows={"a": {"x": 1.0, "y": 2.0}, "b": {"x": 1.0, "y": bad}},
                   domain_of={"x": "d", "y": "d"})


def test_score_table_arrays_are_in_sorted_order():
    table = ScoreTable(
        rows={"b": {"y": 4.0, "x": 3.0, "z": 8.0}, "a": {"x": 1.0, "y": 2.0, "z": 6.0}},
        domain_of={"x": "d1", "y": "d0", "z": "d1"},
    )
    assert table.scores.tolist() == [[1.0, 2.0, 6.0], [3.0, 4.0, 8.0]]
    assert table.domain_scores.tolist() == [[2.0, 3.5], [4.0, 5.5]]


# --- consistency report ------------------------------------------------------------


def random_table(rng, models, benches):
    # Scores sit around 50, inside the 0-100 benchmark scale, so every
    # reference average is positive and capability recovery is defined.
    return ScoreTable(
        rows={m: {b: 50.0 + float(rng.standard_normal()) for b in benches} for m in models},
        domain_of=benches,
    )


def test_consistency_identity_and_monotone_scaling():
    rng = np.random.default_rng(5)
    models = [f"m{i}" for i in range(10)]
    benches = {f"b{j}": f"dom{j % 3}" for j in range(6)}
    ref = random_table(rng, models, benches)
    report = consistency_report(ref, ref)
    assert report["macro_avg_rho"] == 1.0
    assert all(v == 1.0 for v in report["per_domain_rho"].values())
    assert report["mean_capability_recovery"] == 1.0
    assert report["n_models"] == 10
    halved = ScoreTable(
        rows={m: {b: v / 2.0 for b, v in ref.rows[m].items()} for m in models},
        domain_of=benches,
    )
    report = consistency_report(ref, halved)
    assert report["macro_avg_rho"] == 1.0
    assert report["top_quartile_macro"] == 1.0
    assert report["mean_capability_recovery"] == pytest.approx(0.5, rel=1e-12)


def test_consistency_report_matches_from_scratch_script():
    rng = np.random.default_rng(6)
    models = [f"m{i}" for i in range(24)]
    benches = {f"b{j}": f"dom{j % 3}" for j in range(9)}
    ref = random_table(rng, models, benches)
    prox = random_table(rng, models, benches)
    report = consistency_report(ref, prox)
    for domain in sorted({benches[b] for b in benches}):
        group = [b for b in benches if benches[b] == domain]
        ref_avg = [np.mean([ref.rows[m][b] for b in group]) for m in models]
        prox_avg = [np.mean([prox.rows[m][b] for b in group]) for m in models]
        assert report["per_domain_rho"][domain] == pytest.approx(
            brute_force_spearman(ref_avg, prox_avg), abs=1e-12
        )
    assert report["macro_avg_rho"] == pytest.approx(
        np.mean(list(report["per_domain_rho"].values())), abs=1e-15
    )


def test_consistency_rejects_mismatched_tables():
    rng = np.random.default_rng(7)
    models = [f"m{i}" for i in range(4)]
    ref = random_table(rng, models, {"b0": "d"})
    other = random_table(rng, models + ["extra"], {"b0": "d"})
    with pytest.raises(ValidationError, match="model sets differ"):
        consistency_report(ref, other)


def test_consistency_rejects_tables_of_different_benchmarks():
    rng = np.random.default_rng(7)
    models = [f"m{i}" for i in range(4)]
    ref = random_table(rng, models, {"b0": "d"})
    other = random_table(rng, models, {"b1": "d"})
    with pytest.raises(ValidationError, match="consistency_report: benchmark sets differ"):
        consistency_report(ref, other)


def test_a_degenerate_domain_is_named_with_its_table():
    rng = np.random.default_rng(8)
    models = [f"m{i}" for i in range(10)]
    benches = {"x": "d0", "y": "d1", "z": "d1"}
    varied = random_table(rng, models, benches)
    flat = ScoreTable(
        rows={m: {**varied.rows[m], "y": 50.0, "z": 50.0} for m in models}, domain_of=benches
    )
    with pytest.raises(MetricError, match="zero rank variance in the reference table's domain 'd1'"):
        consistency_report(flat, varied)
    with pytest.raises(MetricError, match="zero rank variance in the proxy table's domain 'd1'"):
        consistency_report(varied, flat)
    # The three best reference averages of d1 tie, so only its top quartile is degenerate.
    top_tied = ScoreTable(
        rows={m: {**varied.rows[m], "y": 60.0 + min(i, 7), "z": 60.0} for i, m in enumerate(models)},
        domain_of=benches,
    )
    with pytest.raises(
        MetricError, match="in the top quartile of the reference table's domain 'd1'"
    ):
        consistency_report(top_tied, varied)


# --- equality with the dict-of-dicts implementation ----------------------------------
#
# Before score tables became arrays, every rank and correlation went through
# per-model loops over ScoreTable.rows. The functions below are that
# implementation, kept as the reference the array code must equal exactly.


def dict_midranks(values):
    xs = np.asarray(values, dtype=np.float64)
    order = np.argsort(xs, kind="stable")
    ranks = np.empty(xs.size, dtype=np.float64)
    i = 0
    while i < xs.size:
        j = i
        while j + 1 < xs.size and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def dict_domain_average(table, model, domain):
    return float(np.mean([v for b, v in table.rows[model].items() if table.domain_of[b] == domain]))


def dict_rank_table(table):
    models = table.models()
    per_model = {m: {} for m in models}
    for domain in table.domains():
        averages = np.asarray([dict_domain_average(table, m, domain) for m in models])
        for m, r in zip(models, averages.size + 1.0 - dict_midranks(averages)):
            per_model[m][domain] = float(r)
    return {m: (ranks, float(np.mean(list(ranks.values())))) for m, ranks in per_model.items()}


def dict_consistency_report(reference, proxy):
    models = reference.models()
    per_domain, top_quartile = {}, {}
    for domain in reference.domains():
        ref_avg = {m: dict_domain_average(reference, m, domain) for m in models}
        prox_avg = {m: dict_domain_average(proxy, m, domain) for m in models}
        per_domain[domain] = spearman_rho([ref_avg[m] for m in models], [prox_avg[m] for m in models])
        if len(models) >= 8:
            top = sorted(models, key=lambda m: (-ref_avg[m], m))[: math.ceil(len(models) / 4)]
            top_quartile[domain] = spearman_rho([ref_avg[m] for m in top], [prox_avg[m] for m in top])
    overall = lambda table, m: np.mean(list(table.rows[m].values()))  # noqa: E731
    recoveries = [float(overall(proxy, m)) / float(overall(reference, m)) for m in models]
    return {
        "per_domain_rho": per_domain,
        "macro_avg_rho": float(np.mean(list(per_domain.values()))),
        "top_quartile_rho": top_quartile,
        "top_quartile_macro": float(np.mean(list(top_quartile.values()))) if top_quartile else None,
        "mean_capability_recovery": float(np.mean(recoveries)),
        "n_models": len(models),
    }


def drawn_table(rng, models, domain_of, pool):
    """Scores drawn from ``pool`` (few values: heavy ties), benchmarks inserted
    in sorted order as every table demix writes them."""
    return ScoreTable(
        rows={m: {b: float(rng.choice(pool)) for b in sorted(domain_of)} for m in models},
        domain_of=domain_of,
    )


def test_results_do_not_depend_on_benchmark_insertion_order():
    # Domain averages add in sorted benchmark order, so a table read from a
    # CSV whose rows come in another order gives the same bits.
    rng = np.random.default_rng(11)
    models = [f"m{i:02d}" for i in range(12)]
    domain_of = {f"b{j:02d}": f"d{j % 2}" for j in range(18)}
    values = {m: {b: 50.0 + float(rng.standard_normal()) for b in domain_of} for m in models}
    shuffled = [b for b in rng.permutation(sorted(domain_of))]

    def table(order, shift=0.0):
        return ScoreTable(rows={m: {b: values[m][b] + shift for b in order} for m in models},
                          domain_of=domain_of)

    in_order, out_of_order = table(sorted(domain_of)), table(shuffled)
    assert list(out_of_order.rows["m00"]) != sorted(domain_of)
    assert rank_table(in_order) == rank_table(out_of_order)
    assert consistency_report(in_order, table(sorted(domain_of), 0.1)) == consistency_report(
        out_of_order, table(shuffled, 0.1)
    )


POOL = st.lists(st.floats(0.5, 100.0), min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(
    n_models=st.integers(8, 40),
    # The first domain has 8 or more benchmarks, where np.mean adds pairwise.
    big=st.integers(8, 10),
    sizes=st.lists(st.integers(1, 10), max_size=8),
    ref_pool=POOL,
    proxy_pool=POOL,
    seed=st.integers(0, 2**32 - 1),
)
def test_array_tables_equal_the_dict_implementation(n_models, big, sizes, ref_pool, proxy_pool, seed):
    rng = np.random.default_rng(seed)
    models = [f"m{i:02d}" for i in rng.permutation(n_models)]
    domains = [f"d{k}" for k, size in enumerate([big, *sizes]) for _ in range(size)]
    domain_of = {f"b{j:02d}": d for j, d in enumerate(rng.permutation(domains))}
    reference = drawn_table(rng, models, domain_of, ref_pool)
    proxy = drawn_table(rng, models, domain_of, proxy_pool)
    assert rank_table(reference) == dict_rank_table(reference)
    assert rank_table(proxy) == dict_rank_table(proxy)
    try:
        expected = dict_consistency_report(reference, proxy)
    except MetricError:
        with pytest.raises(MetricError, match="degenerate ranking"):
            consistency_report(reference, proxy)
    else:
        assert consistency_report(reference, proxy) == expected
