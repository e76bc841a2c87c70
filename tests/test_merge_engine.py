"""Tests for mixture ratios, merging methods, and the additivity check."""

import numpy as np
import pytest

from demix.errors import SchemaMismatchError, ValidationError
from demix.merge_engine import (
    MergeSpec,
    MixtureRatio,
    check_additivity,
    merge,
    merge_linear,
)
from demix.tensor_store import ParameterSet, WeightDelta, compute_delta


def random_set(rng, sizes=(6, 3), model_id=""):
    return ParameterSet.from_arrays(
        {f"t{i}": rng.standard_normal(s) for i, s in enumerate(sizes)}, model_id=model_id
    )


def ratio(weights, ids=None):
    ids = ids if ids is not None else [f"c{i}" for i in range(len(weights))]
    return MixtureRatio(weights=weights, candidate_ids=ids)


# --- MixtureRatio ------------------------------------------------------------


def test_ratio_renormalizes_within_tolerance():
    r = ratio([0.5, 0.5 + 5e-10])
    assert r.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_ratio_rejects_large_drift_negative_and_duplicates():
    with pytest.raises(ValidationError, match="sum"):
        ratio([0.6, 0.6])
    with pytest.raises(ValidationError, match="negative"):
        ratio([1.2, -0.2])
    with pytest.raises(ValidationError, match="duplicate"):
        ratio([0.5, 0.5], ids=["a", "a"])


# --- linear merging -----------------------------------------------------------


def test_one_hot_returns_component_bit_exact():
    rng = np.random.default_rng(0)
    comps = [random_set(rng) for _ in range(3)]
    for k in range(3):
        weights = np.zeros(3)
        weights[k] = 1.0
        out = merge_linear(comps, ratio(weights))
        for name in out.names():
            assert np.array_equal(out.entries[name], comps[k].entries[name])


def test_identical_components_merge_to_themselves_bit_exact():
    rng = np.random.default_rng(1)
    comp = random_set(rng)
    comps = [comp.copy() for _ in range(3)]
    out = merge_linear(comps, ratio([0.3, 0.3, 0.4]))
    for name in out.names():
        assert np.array_equal(out.entries[name], comp.entries[name])


def test_hand_arithmetic_quarter_three_quarters():
    c1 = ParameterSet.from_arrays({"w": np.array([0.0])})
    c2 = ParameterSet.from_arrays({"w": np.array([2.0])})
    out = merge_linear([c1, c2], ratio([0.25, 0.75]))
    assert out.entries["w"][0] == pytest.approx(1.5, abs=0.0)


def test_permutation_equivariance_bitwise():
    rng = np.random.default_rng(2)
    comps = [random_set(rng) for _ in range(4)]
    r = ratio([0.1, 0.2, 0.3, 0.4], ids=["a", "b", "c", "d"])
    out = merge_linear(comps, r)
    order = [2, 0, 3, 1]
    reordered = ratio(r.weights[order], ids=[r.candidate_ids[i] for i in order])
    out_reordered = merge_linear([comps[i] for i in order], reordered)
    for name in out.names():
        assert np.array_equal(out.entries[name], out_reordered.entries[name])


def test_convex_hull_property():
    rng = np.random.default_rng(3)
    comps = [random_set(rng) for _ in range(3)]
    weights = rng.dirichlet(np.ones(3))
    out = merge_linear(comps, ratio(weights))
    for name in out.names():
        stack = np.stack([c.entries[name] for c in comps])
        assert np.all(out.entries[name] >= stack.min(axis=0) - 1e-12)
        assert np.all(out.entries[name] <= stack.max(axis=0) + 1e-12)


def test_schema_mismatch_and_arity_rejected():
    rng = np.random.default_rng(4)
    with pytest.raises(ValidationError, match="components"):
        merge_linear([random_set(rng)], ratio([0.5, 0.5]))
    with pytest.raises(SchemaMismatchError):
        merge_linear([random_set(rng), random_set(rng, sizes=(6, 4))], ratio([0.5, 0.5]))


# --- merge dispatch and variants -----------------------------------------------


def test_spec_validation():
    with pytest.raises(ValidationError, match="unknown merge method"):
        MergeSpec(method="soup")
    with pytest.raises(ValidationError, match="unexpected"):
        MergeSpec(method="linear", hyperparams={"p": 0.5})
    with pytest.raises(ValidationError, match="seed"):
        MergeSpec(method="dare")
    with pytest.raises(ValidationError, match="drop_probability"):
        MergeSpec(method="dare", hyperparams={"drop_probability": 1.0}, seed=0)
    with pytest.raises(ValidationError, match="keep something"):
        MergeSpec(method="breadcrumbs", hyperparams={"top_fraction": 0.3, "bottom_fraction": 0.7})


def test_delta_methods_require_base():
    rng = np.random.default_rng(5)
    comps = [random_set(rng) for _ in range(2)]
    with pytest.raises(ValidationError, match="base"):
        merge(comps, ratio([0.5, 0.5]), MergeSpec(method="ties"))


def test_linear_dispatch_matches_merge_linear():
    rng = np.random.default_rng(6)
    comps = [random_set(rng) for _ in range(3)]
    r = ratio(rng.dirichlet(np.ones(3)))
    a = merge_linear(comps, r)
    b = merge(comps, r, MergeSpec(method="linear"))
    for name in a.names():
        assert np.array_equal(a.entries[name], b.entries[name])


def test_dare_p_zero_equals_linear():
    rng = np.random.default_rng(7)
    base = random_set(rng, model_id="base")
    comps = [random_set(rng) for _ in range(3)]
    r = ratio(rng.dirichlet(np.ones(3)))
    lin = merge_linear(comps, r)
    dare = merge(comps, r, MergeSpec(method="dare", hyperparams={"drop_probability": 0.0}, seed=11), base=base)
    for name in lin.names():
        assert np.allclose(dare.entries[name], lin.entries[name], rtol=0.0, atol=1e-12)


def test_stochastic_methods_deterministic_given_seed():
    rng = np.random.default_rng(8)
    base = random_set(rng, model_id="base")
    comps = [random_set(rng) for _ in range(3)]
    r = ratio(rng.dirichlet(np.ones(3)))
    for method in ("dare", "della"):
        spec = MergeSpec(method=method, seed=42)
        one = merge(comps, r, spec, base=base)
        two = merge(comps, r, MergeSpec(method=method, seed=42), base=base)
        other = merge(comps, r, MergeSpec(method=method, seed=43), base=base)
        assert all(np.array_equal(one.entries[n], two.entries[n]) for n in one.names())
        assert any(not np.array_equal(one.entries[n], other.entries[n]) for n in one.names())


def brute_force_ties(deltas, weights, density):
    """Independent trim/elect/merge oracle on tiny flattened tensors."""
    flat = [d.copy() for d in deltas]
    m = flat[0].size
    keep_n = min(m, max(1, int(np.ceil(density * m))))
    trimmed = []
    for d in flat:
        threshold = sorted(np.abs(d))[m - keep_n]
        trimmed.append(np.array([v if abs(v) >= threshold else 0.0 for v in d]))
    out = np.zeros(m)
    for c in range(m):
        mass = sum(w * t[c] for w, t in zip(weights, trimmed))
        sign = 1.0 if mass >= 0 else -1.0
        num = den = 0.0
        for w, t in zip(weights, trimmed):
            if t[c] * sign > 0:
                num += w * t[c]
                den += w
        out[c] = num / den if den > 0 else 0.0
    return out


def test_ties_matches_brute_force_oracle():
    rng = np.random.default_rng(9)
    for trial in range(20):
        base = ParameterSet.from_arrays({"w": rng.standard_normal(8)}, model_id="b")
        comps = [
            ParameterSet.from_arrays({"w": base.entries["w"] + rng.standard_normal(8)})
            for _ in range(3)
        ]
        weights = rng.dirichlet(np.ones(3))
        density = rng.choice([0.25, 0.5, 1.0])
        r = ratio(weights)
        got = merge(comps, r, MergeSpec(method="ties", hyperparams={"density": density}), base=base)
        order = sorted(range(3), key=lambda i: r.candidate_ids[i])
        expected = brute_force_ties(
            [comps[i].entries["w"] - base.entries["w"] for i in order],
            [weights[i] for i in order],
            density,
        )
        assert np.allclose(got.entries["w"] - base.entries["w"], expected, atol=1e-12)


def test_ties_density_one_sign_agreeing_equals_linear():
    rng = np.random.default_rng(10)
    base = random_set(rng, model_id="base")
    # all deltas strictly positive => signs agree coordinatewise
    comps = [
        ParameterSet.from_arrays(
            {n: base.entries[n] + rng.uniform(0.1, 1.0, base.entries[n].size) for n in base.names()}
        )
        for _ in range(3)
    ]
    r = ratio(rng.dirichlet(np.ones(3)))
    lin = merge_linear(comps, r)
    got = merge(comps, r, MergeSpec(method="ties", hyperparams={"density": 1.0}), base=base)
    for name in lin.names():
        assert np.allclose(got.entries[name], lin.entries[name], atol=1e-12)


def test_multi_slerp_preserves_weighted_norm_and_handles_zero_deltas():
    rng = np.random.default_rng(11)
    base = random_set(rng, model_id="base")
    comps = [random_set(rng) for _ in range(2)] + [base.copy()]  # third has zero delta
    r = ratio([0.4, 0.4, 0.2])
    out = merge(comps, r, MergeSpec(method="multi_slerp"), base=base)
    delta = np.concatenate([out.entries[n] - base.entries[n] for n in out.names()])
    norms = [
        np.linalg.norm(np.concatenate([c.entries[n] - base.entries[n] for n in c.names()]))
        for c in comps
    ]
    live_w = np.array([0.4, 0.4]) / 0.8  # zero-delta weight renormalized away
    assert np.linalg.norm(delta) == pytest.approx(float(live_w @ norms[:2]), rel=1e-12)
    all_base = merge([base.copy(), base.copy()], ratio([0.5, 0.5]), MergeSpec(method="multi_slerp"), base=base)
    for name in base.names():
        assert np.array_equal(all_base.entries[name], base.entries[name])


def test_breadcrumbs_masks_top_and_bottom_per_tensor():
    base = ParameterSet.from_arrays({"w": np.zeros(10)}, model_id="b")
    delta = np.array([10.0, -9.0, 5.0, 4.0, -3.0, 2.0, 1.0, 0.5, -0.2, 0.1])
    comp = ParameterSet.from_arrays({"w": delta})
    spec = MergeSpec(
        method="breadcrumbs", hyperparams={"top_fraction": 0.2, "bottom_fraction": 0.3}
    )
    out = merge([comp], ratio([1.0], ids=["only"]), spec, base=base)
    # top 2 by magnitude (10, -9) and bottom 3 (0.5, -0.2, 0.1) are zeroed
    expected = np.array([0.0, 0.0, 5.0, 4.0, -3.0, 2.0, 1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(out.entries["w"], expected)


# --- additivity ---------------------------------------------------------------


def delta_of(values, base_id="b"):
    return WeightDelta(entries={"w": np.asarray(values, dtype=float)}, shapes={}, base_id=base_id)


def test_additivity_exact_sum_gives_zero_error():
    rep = check_additivity(delta_of([1.0, 2.0]), delta_of([0.5, -1.0]), delta_of([1.5, 1.0]))
    assert rep.relative_error == 0.0


def test_additivity_hand_case():
    rep = check_additivity(delta_of([1.0]), delta_of([1.0]), delta_of([2.2]))
    assert rep.relative_error == pytest.approx(0.2 / 2.2, rel=1e-12)
    assert rep.per_tensor_errors["w"] == pytest.approx(0.2 / 2.2, rel=1e-12)


def test_additivity_includes_delta_magnitudes_with_base():
    base = ParameterSet.from_arrays({"w": np.array([1.0])}, model_id="b")
    rep = check_additivity(delta_of([1.0]), delta_of([1.0]), delta_of([2.0]), base=base)
    # trained = 2, base = 1 -> 1/3; trained = 3, base = 1 -> 2/4
    assert rep.delta_magnitudes[0] == pytest.approx(1.0 / 3.0)
    assert rep.delta_magnitudes[2] == pytest.approx(0.5)
    no_base = check_additivity(delta_of([1.0]), delta_of([1.0]), delta_of([2.0]))
    assert no_base.delta_magnitudes == (None, None, None)


def test_additivity_rejects_base_mismatch():
    with pytest.raises(SchemaMismatchError, match="different bases"):
        check_additivity(delta_of([1.0]), delta_of([1.0], base_id="other"), delta_of([2.0]))
