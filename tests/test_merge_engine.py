"""Tests for mixture ratios and linear merging."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from demix import merge_engine
from demix.errors import NonFiniteError, SchemaMismatchError, ValidationError
from demix.merge_engine import MixtureRatio, merge
from demix.tensor_store import ParameterSet, save_archive


def random_set(rng, sizes=(6, 3)):
    return ParameterSet.from_arrays({f"t{i}": rng.standard_normal(s) for i, s in enumerate(sizes)})


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
        out = merge(comps, ratio(weights)).parameters()
        for name in out.names():
            assert np.array_equal(out.entries[name], comps[k].entries[name])


def test_identical_components_merge_to_themselves_bit_exact():
    rng = np.random.default_rng(1)
    comp = random_set(rng)
    comps = [comp.copy() for _ in range(3)]
    out = merge(comps, ratio([0.3, 0.3, 0.4])).parameters()
    for name in out.names():
        assert np.array_equal(out.entries[name], comp.entries[name])


def test_hand_arithmetic_quarter_three_quarters():
    c1 = ParameterSet.from_arrays({"w": np.array([0.0])})
    c2 = ParameterSet.from_arrays({"w": np.array([2.0])})
    out = merge([c1, c2], ratio([0.25, 0.75])).parameters()
    assert out.entries["w"][0] == pytest.approx(1.5, abs=0.0)


def test_permutation_equivariance_bitwise():
    rng = np.random.default_rng(2)
    comps = [random_set(rng) for _ in range(4)]
    r = ratio([0.1, 0.2, 0.3, 0.4], ids=["a", "b", "c", "d"])
    out = merge(comps, r).parameters()
    order = [2, 0, 3, 1]
    reordered = ratio(r.weights[order], ids=[r.candidate_ids[i] for i in order])
    out_reordered = merge([comps[i] for i in order], reordered).parameters()
    for name in out.names():
        assert np.array_equal(out.entries[name], out_reordered.entries[name])


def test_convex_hull_property():
    rng = np.random.default_rng(3)
    comps = [random_set(rng) for _ in range(3)]
    weights = rng.dirichlet(np.ones(3))
    out = merge(comps, ratio(weights)).parameters()
    for name in out.names():
        stack = np.stack([c.entries[name] for c in comps])
        assert np.all(out.entries[name] >= stack.min(axis=0) - 1e-12)
        assert np.all(out.entries[name] <= stack.max(axis=0) + 1e-12)


def test_schema_mismatch_and_arity_rejected():
    rng = np.random.default_rng(4)
    with pytest.raises(ValidationError, match="components"):
        merge([random_set(rng)], ratio([0.5, 0.5]))
    with pytest.raises(SchemaMismatchError):
        merge([random_set(rng), random_set(rng, sizes=(6, 4))], ratio([0.5, 0.5]))


def test_merge_returns_2d_and_0d_tensors_in_their_shapes():
    rng = np.random.default_rng(21)

    def shaped():
        arrays = {"m": rng.standard_normal((4, 3)), "s": np.float64(rng.standard_normal())}
        return ParameterSet.from_arrays(arrays)

    def flattened(params):
        return ParameterSet.from_arrays({n: a.ravel() for n, a in params.entries.items()})

    comps = [shaped() for _ in range(3)]
    r = ratio([0.5, 0.3, 0.2])
    merged = merge(comps, r).parameters()
    assert {n: a.shape for n, a in merged.entries.items()} == {"m": (4, 3), "s": ()}
    flat = merge([flattened(c) for c in comps], r).parameters()
    for name in merged.names():
        assert np.array_equal(merged.entries[name].ravel(), flat.entries[name])


# --- ratio validation and bookkeeping -------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ratio_rejects_non_finite_weights(bad):
    with pytest.raises(ValidationError, match="non-finite"):
        ratio([bad, 0.5])


@pytest.mark.parametrize("weights, ids", [([0.5, 0.5], ["a"]), ([], [])])
def test_ratio_rejects_misaligned_ids_and_empty_weights(weights, ids):
    with pytest.raises(ValidationError, match="align"):
        ratio(weights, ids=ids)


def test_ratio_as_dict_and_len_follow_the_candidate_ids():
    r = ratio(np.array([[0.25, 0.75]]), ids=[7, "b"])
    assert len(r) == 2
    assert r.candidate_ids == ["7", "b"]
    assert r.as_dict() == {"7": 0.25, "b": 0.75}


# --- merge: names, aliasing and zero weights --------------------------------------


def test_merge_rejects_components_with_different_tensor_names():
    a = ParameterSet.from_arrays({"w": np.zeros(2)})
    b = ParameterSet.from_arrays({"v": np.zeros(2)})
    with pytest.raises(SchemaMismatchError, match="schemas differ"):
        merge([a, b], ratio([0.5, 0.5]))


def test_merge_returns_new_arrays_under_the_given_model_id():
    rng = np.random.default_rng(5)
    comps = [random_set(rng) for _ in range(2)]
    out = merge(comps, ratio([1.0, 0.0]), model_id="proxy").parameters()
    assert out.model_id == "proxy"
    for name in out.names():
        assert np.array_equal(out.entries[name], comps[0].entries[name])
        assert not any(np.shares_memory(out.entries[name], c.entries[name]) for c in comps)


def test_a_zero_weight_component_leaves_the_merge_unchanged_bit_exact():
    rng = np.random.default_rng(6)
    comps = [random_set(rng) for _ in range(3)]
    weights = rng.dirichlet(np.ones(2))
    two = merge(comps[:2], ratio(weights, ids=["a", "c"])).parameters()
    three = merge(comps, ratio([*weights, 0.0], ids=["a", "c", "b"])).parameters()
    for name in two.names():
        assert np.array_equal(two.entries[name], three.entries[name])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    size=st.integers(0, 7),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_merge_matches_the_weighted_sum(seed, n, size, scale):
    rng = np.random.default_rng(seed)
    comps = [
        ParameterSet.from_arrays({"w": scale * rng.standard_normal(size), "s": scale * rng.standard_normal()})
        for _ in range(n)
    ]
    weights = rng.dirichlet(np.ones(n))
    out = merge(comps, ratio(weights)).parameters()
    for name in out.names():
        expected = sum(w * c.entries[name] for w, c in zip(weights, comps))
        np.testing.assert_allclose(out.entries[name], expected, rtol=0.0, atol=1e-12 * scale)


# --- the blocked kernel ------------------------------------------------------------


def whole_tensor_merge(components, r):
    """The merge formula on whole tensors, one full-size temporary per step:
    the blocked kernel must give the same bits."""
    order = sorted(range(len(r)), key=lambda i: r.candidate_ids[i])
    anchor = next(i for i in order if r.weights[i] == r.weights.max())
    out = {}
    for name in components[0].names():
        ref = components[anchor].entries[name]
        acc = np.zeros_like(ref)
        for i in order:
            if i != anchor:
                acc = acc + r.weights[i] * (components[i].entries[name] - ref)
        out[name] = ref + acc
    return out


@pytest.fixture()
def small_block(monkeypatch):
    monkeypatch.setattr(merge_engine, "BLOCK", 7)


# Around, at and past one and two blocks of 7, and shapes with more than one axis.
KERNEL_SHAPES = [(0,), (1,), (6,), (7,), (8,), (15,), (3, 0), (2, 5, 3)]


def kernel_set(rng):
    # Magnitudes spread over many binades, so that any change in the order
    # of the operations would show in the last bits.
    return ParameterSet.from_arrays(
        {
            f"t{k}": rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
            for k, shape in enumerate(KERNEL_SHAPES)
        }
    )


# Four components are the fewest whose sum order shows: three terms added to 0.
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_blocked_kernel_gives_the_bits_of_the_whole_tensor_formula(small_block, n):
    rng = np.random.default_rng(10 + n)
    comps = [kernel_set(rng) for _ in range(n)]
    r = ratio(rng.dirichlet(np.ones(n)))
    merged = merge(comps, r).parameters()
    expected = whole_tensor_merge(comps, r)
    for name, values in expected.items():
        assert merged.entries[name].shape == np.shape(values)
        assert np.array_equal(merged.entries[name], values)
        assert merged.entries[name].tobytes() == np.asarray(values).tobytes()


def test_one_hot_and_permutation_hold_with_a_small_block(small_block):
    rng = np.random.default_rng(20)
    comps = [kernel_set(rng) for _ in range(3)]
    for k in range(3):
        out = merge(comps, ratio(np.eye(3)[k])).parameters()
        for name in out.names():
            assert np.array_equal(out.entries[name], comps[k].entries[name])
    r = ratio([0.2, 0.5, 0.3], ids=["a", "b", "c"])
    order = [2, 0, 1]
    reordered = ratio(r.weights[order], ids=[r.candidate_ids[i] for i in order])
    out = merge(comps, r).parameters()
    out_reordered = merge([comps[i] for i in order], reordered).parameters()
    for name in out.names():
        assert out.entries[name].tobytes() == out_reordered.entries[name].tobytes()


def test_components_without_tensors_merge_to_an_empty_set():
    empty = ParameterSet.from_arrays({})
    assert merge([empty, empty.copy()], ratio([0.5, 0.5]), model_id="m").parameters().entries == {}


def test_merge_allocates_no_full_size_temporaries():
    rng = np.random.default_rng(30)
    size = 1 << 20  # 8 MiB a tensor
    comps = [ParameterSet.from_arrays({"w": rng.standard_normal(size)}) for _ in range(3)]
    tracemalloc.start()
    try:
        merged = merge(comps, ratio([0.2, 0.5, 0.3])).parameters()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The output, the scratch blocks and the finiteness check's one-byte mask.
    assert merged.entries["w"].nbytes == 8 << 20
    assert peak < (8 << 20) + (2 << 20)


# --- non-finite inputs ------------------------------------------------------------
# `demix merge` loads its archives without the finiteness pass and relies on
# the check of each merged block: a non-finite input value must leave a
# non-finite merged value above it, whatever the weights and the other values.


@settings(max_examples=400, deadline=None)
@given(
    weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=1, max_size=4).filter(
        lambda w: sum(w) > 0
    ),
    values=st.lists(st.floats(-1e300, 1e300), min_size=4, max_size=4),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    in_anchor=st.booleans(),
    pick=st.integers(0, 3),
    position=st.integers(0, 8),
)
def test_a_non_finite_input_value_leaves_its_merged_value_non_finite(
    weights, values, bad, in_anchor, pick, position
):
    arrays = [np.linspace(-1.0, 1.0, 9) for _ in weights]
    for arr, value in zip(arrays, values):
        arr[position] = value
    comps = [ParameterSet.from_arrays({"w": arr}) for arr in arrays]
    plan = merge(comps, ratio(np.array(weights) / sum(weights)))
    assume(in_anchor or plan.others)
    target = plan.anchor if in_anchor else plan.others[pick % len(plan.others)][1]
    # The set's array is a view of its owner's, which the test may still write.
    arrays[next(i for i, comp in enumerate(comps) if comp is target)][position] = bad
    others = [(w, comp.entries["w"]) for w, comp in plan.others]
    merged = merge_engine.merge_block(plan.anchor.entries["w"], others, np.empty(9), np.empty(9))
    assert not np.isfinite(merged[position])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(merge_engine, "BLOCK", 4)  # the value lands in any of three blocks
        with pytest.raises(NonFiniteError, match="tensor 'w': non-finite value"):
            list(plan.blocks())


# --- the streamed write ---------------------------------------------------------------

# Three whole blocks of 7, a partial last block, an empty, a 0-d and a 2-D tensor.
STREAM_SHAPES = {"blocks": (21,), "partial": (17,), "empty": (0,), "scalar": (), "matrix": (4, 5)}


@pytest.mark.parametrize("n", [1, 2, 4])
def test_a_streamed_archive_has_the_bytes_of_the_saved_merged_model(small_block, tmp_path, n):
    rng = np.random.default_rng(40 + n)
    comps = [
        ParameterSet.from_arrays(
            {name: rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
             for name, shape in STREAM_SHAPES.items()}
        )
        for _ in range(n)
    ]
    r = ratio(rng.dirichlet(np.ones(n)))
    streamed, in_memory = tmp_path / "streamed.dmxt", tmp_path / "in_memory.dmxt"
    save_archive(merge(comps, r, model_id="m"), streamed, metadata={"ratio": "r"})
    save_archive(merge(comps, r, model_id="m").parameters(), in_memory, metadata={"ratio": "r"})
    assert streamed.read_bytes() == in_memory.read_bytes()


def test_any_range_of_blocks_gives_the_values_of_the_whole_merge_at_its_starts(small_block):
    rng = np.random.default_rng(41)
    comps = [ParameterSet.from_arrays({name: rng.standard_normal(shape) for name, shape in STREAM_SHAPES.items()})
             for _ in range(3)]
    plan = merge(comps, ratio(rng.dirichlet(np.ones(3))))
    whole = np.concatenate([block.copy() for block in plan.blocks()])
    flat = np.concatenate([plan.parameters().entries[name].reshape(-1) for name in plan.anchor.names()])
    assert whole.tobytes() == flat.tobytes()
    starts = plan.block_starts()
    # Three blocks each of "blocks", "matrix" and "partial", one of "scalar", none of "empty".
    assert len(starts) == 10 and starts[0] == 0
    for first in range(len(starts) + 1):
        for last in range(first, len(starts) + 1):
            blocks = [block.copy() for block in plan.blocks(first, last)]
            stop = starts[last] if last < len(starts) else whole.size
            at = starts[first] if first < len(starts) else whole.size
            assert np.concatenate([np.empty(0), *blocks]).tobytes() == whole[at:stop].tobytes()


def test_a_streamed_merge_holds_only_its_scratch(tmp_path):
    rng = np.random.default_rng(31)
    size = 1 << 20  # 8 MiB a tensor
    comps = [ParameterSet.from_arrays({"w": rng.standard_normal(size)}) for _ in range(3)]
    tracemalloc.start()
    try:
        save_archive(merge(comps, ratio([0.2, 0.5, 0.3])), tmp_path / "merged.dmxt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Two 256 KB scratch blocks and one block's finiteness mask, never the model.
    assert peak < 1 << 20
