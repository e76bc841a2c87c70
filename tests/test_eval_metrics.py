"""Tests for Spearman, top-quartile, capability recovery and rank metrics."""

import math

import numpy as np
import pytest

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
    ref = {f"m{i}": float(i) for i in range(8)}
    assert top_quartile_rho(ref, dict(ref)) == 1.0
    swapped = dict(ref)
    swapped["m7"], swapped["m6"] = ref["m6"], ref["m7"]  # swap the top two
    assert top_quartile_rho(ref, swapped) == -1.0


def test_top_quartile_matches_brute_force_restriction():
    rng = np.random.default_rng(2)
    for _ in range(50):
        models = [f"m{i}" for i in range(16)]
        ref = {m: float(rng.standard_normal()) for m in models}
        prox = {m: float(rng.standard_normal()) for m in models}
        q = math.ceil(len(models) / 4)
        chosen = sorted(models, key=lambda m: (-ref[m], m))[:q]
        expected = brute_force_spearman([ref[m] for m in chosen], [prox[m] for m in chosen])
        assert top_quartile_rho(ref, prox) == pytest.approx(expected, abs=1e-12)


def test_top_quartile_needs_eight_models():
    ref = {f"m{i}": float(i) for i in range(7)}
    with pytest.raises(MetricError, match="at least 8"):
        top_quartile_rho(ref, dict(ref))


# --- capability recovery --------------------------------------------------------


def test_capability_recovery_cases():
    assert capability_recovery(50.0, 50.0) == 1.0
    assert capability_recovery(0.85 * 61.0, 61.0) == pytest.approx(0.85, rel=1e-12)
    assert capability_recovery(42.0, 50.0) == pytest.approx(0.84, rel=1e-12)
    # degree-0 homogeneity under joint scaling
    assert capability_recovery(4.2, 5.0) == pytest.approx(capability_recovery(42.0, 50.0), rel=1e-12)
    with pytest.raises(MetricError, match="nonpositive"):
        capability_recovery(1.0, 0.0)


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
    with pytest.raises(ValidationError, match="non-finite"):
        ScoreTable(rows={"a": {"x": float("nan")}}, domain_of={"x": "d"})


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
