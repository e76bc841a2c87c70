"""Tests for shingling, MinHash, LSH banding, and corpus deduplication."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from demix import dedup
from demix.dedup import (
    MERSENNE_PRIME,
    dedup_corpus,
    hash_family,
    lsh_candidates,
    minhash,
    mod_affine,
    shingle,
    tokenize,
)
from demix.errors import ValidationError


def words(n, rng=None, vocab=10_000):
    rng = rng or np.random.default_rng(0)
    return " ".join(f"w{i}" for i in rng.integers(0, vocab, size=n))


# --- tokenization and shingling ----------------------------------------------


def test_tokenize_lowercases_and_drops_punctuation_tokens():
    assert tokenize("Hello , WORLD !! x2") == ["hello", "world", "x2"]


def test_exact_window_counts():
    doc24 = [f"t{i}" for i in range(24)]
    assert len(shingle(doc24)) == 1
    doc26 = [f"t{i}" for i in range(26)]
    assert len(shingle(doc26)) == 3  # windows at offsets 0, 1, 2


def test_short_document_yields_whole_document_shingle():
    assert len(shingle(tokenize("just five little words here"))) == 1


def test_identical_texts_identical_shingles():
    text = words(60)
    hashes = shingle(tokenize(text))
    assert np.array_equal(hashes, shingle(tokenize(text)))
    assert hashes.dtype == np.uint64 and np.all(hashes[1:] > hashes[:-1])  # sorted, distinct


def test_empty_document_rejected():
    with pytest.raises(ValidationError, match="empty document"):
        shingle(tokenize("...  !!"))


# --- modular hash family -------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, int(MERSENNE_PRIME) - 1),
    st.integers(0, int(MERSENNE_PRIME) - 1),
    st.integers(0, 2**64 - 1),
)
def test_mod_affine_matches_python_int_arithmetic(a, b, x):
    expected = (a * x + b) % int(MERSENNE_PRIME)
    got = mod_affine(np.uint64(a), np.uint64(b), np.uint64(x))
    assert int(got) == expected


def test_hash_family_is_seeded_and_in_range():
    a1, b1 = hash_family(7)
    a2, b2 = hash_family(7)
    a3, _ = hash_family(8)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert not np.array_equal(a1, a3)
    assert a1.min() >= 1 and int(a1.max()) < int(MERSENNE_PRIME)
    assert int(b1.max()) < int(MERSENNE_PRIME)


# --- minhash --------------------------------------------------------------------


def sets_with_jaccard(rng, union_size, jaccard):
    """Two sorted shingle arrays with exactly the requested Jaccard similarity."""
    inter = round(jaccard * union_size)
    only = union_size - inter
    universe = np.unique(rng.integers(0, 2**63, size=4 * union_size, dtype=np.uint64))
    assert universe.size >= union_size  # 63-bit draws collide with negligible probability
    universe = rng.permutation(universe)[:union_size]
    shared = universe[:inter]
    a_only = universe[inter : inter + (only + 1) // 2]
    b_only = universe[inter + (only + 1) // 2 :]
    return np.sort(np.concatenate([shared, a_only])), np.sort(np.concatenate([shared, b_only]))


def exact_jaccard(a, b):
    return len(np.intersect1d(a, b)) / len(np.union1d(a, b))


def test_identical_shingle_sets_identical_signatures():
    text = words(100)
    s1 = minhash(shingle(tokenize(text)), hash_family(3))
    s2 = minhash(shingle(tokenize(text)), hash_family(3))
    assert np.array_equal(s1, s2)


def test_signature_match_rate_estimates_jaccard():
    rng = np.random.default_rng(11)
    for target in (0.3, 0.6, 0.9):
        hits = 0
        trials = 40
        for t in range(trials):
            sa, sb = sets_with_jaccard(rng, union_size=40, jaccard=target)
            j = exact_jaccard(sa, sb)
            assert j == pytest.approx(target, abs=0.02)
            family = hash_family(t)
            va, vb = minhash(sa, family), minhash(sb, family)
            empirical = float(np.mean(va == vb))
            hits += abs(empirical - j) <= 0.12
        assert hits / trials >= 0.95


def test_disjoint_sets_rarely_match():
    rng = np.random.default_rng(12)
    rates = []
    for t in range(50):
        sa, sb = sets_with_jaccard(rng, union_size=60, jaccard=0.0)
        family = hash_family(t)
        va, vb = minhash(sa, family), minhash(sb, family)
        rates.append(float(np.mean(va == vb)))
    assert float(np.mean(rates)) <= 0.05


# --- LSH banding ------------------------------------------------------------------


def test_exact_duplicates_always_pair():
    text = words(80)
    sig = minhash(shingle(tokenize(text)), hash_family(1))
    sigs = np.stack([sig, sig])
    assert lsh_candidates(["a", "b"], sigs) == {("a", "b")}
    with pytest.raises(ValidationError, match="signature matrix"):
        lsh_candidates(["a"], sigs)


def test_unrelated_documents_never_pair():
    rng = np.random.default_rng(13)
    pairs = 0
    for t in range(1000):
        sa, sb = sets_with_jaccard(rng, union_size=50, jaccard=0.0)
        family = hash_family(t)
        sigs = np.stack([minhash(sa, family), minhash(sb, family)])
        pairs += len(lsh_candidates(["a", "b"], sigs))
    assert pairs == 0


def lsh_collision_rate(jaccard, trials, union_size=40, seed0=0):
    rng = np.random.default_rng(1234 + seed0)
    collisions = 0
    for t in range(trials):
        sa, sb = sets_with_jaccard(rng, union_size=union_size, jaccard=jaccard)
        family = hash_family(seed0 + t)
        sigs = np.stack([minhash(sa, family), minhash(sb, family)])
        collisions += bool(lsh_candidates(["a", "b"], sigs))
    return collisions / trials


def test_banding_follows_the_closed_form_s_curve():
    for jaccard in (0.7, 0.85, 0.95):
        expected = 1.0 - (1.0 - jaccard**13) ** 20
        assert abs(lsh_collision_rate(jaccard, trials=200) - expected) <= 0.05


# --- corpus-level dedup --------------------------------------------------------------


def test_identical_copies_collapse_to_one():
    text = words(50)
    docs = [(f"d{i}", text) for i in range(5)]
    result = dedup_corpus(docs, mode="both", seed=0)
    assert result.kept_ids == ["d0"]
    assert result.removed_ids == ["d1", "d2", "d3", "d4"]
    assert result.clusters == [["d0", "d1", "d2", "d3", "d4"]]
    assert all(result.removal_reasons[d] == "exact" for d in result.removed_ids)


def test_distinct_corpus_nothing_removed_in_fuzzy_mode():
    rng = np.random.default_rng(14)
    docs = [(f"d{i}", words(40, rng)) for i in range(30)]
    shingles = [shingle(tokenize(text)) for _, text in docs]
    for i in range(len(docs)):  # generated corpus really is near-disjoint
        for j in range(i + 1, len(docs)):
            assert exact_jaccard(shingles[i], shingles[j]) < 0.1
    result = dedup_corpus(docs, mode="fuzzy", seed=0)
    assert result.removed_ids == []
    assert result.kept_ids == [d for d, _ in docs]


def test_exact_then_fuzzy_equals_fuzzy_alone_on_exact_duplicates():
    rng = np.random.default_rng(15)
    base_texts = [words(40, rng) for _ in range(5)]
    docs = []
    for i, text in enumerate(base_texts):
        docs.append((f"a{i}", text))
        docs.append((f"b{i}", text))
    both = dedup_corpus(docs, mode="both", seed=0)
    fuzzy = dedup_corpus(docs, mode="fuzzy", seed=0)
    assert both.kept_ids == fuzzy.kept_ids


def test_partition_invariants_and_order_stability():
    rng = np.random.default_rng(16)
    text = words(60, rng)
    near = text.rsplit(" ", 1)[0] + " tail"
    docs = [("x", text), ("y", near), ("z", words(60, rng)), ("x2", text)]
    result = dedup_corpus(docs, mode="both", seed=5)
    all_ids = {d for d, _ in docs}
    assert set(result.kept_ids) | set(result.removed_ids) == all_ids
    assert set(result.kept_ids) & set(result.removed_ids) == set()
    for cluster in result.clusters:
        assert cluster[0] in result.kept_ids
        assert all(m in result.removed_ids for m in cluster[1:])
    again = dedup_corpus(docs, mode="both", seed=5)
    assert again.kept_ids == result.kept_ids
    assert again.clusters == result.clusters


def test_duplicate_ids_rejected():
    with pytest.raises(ValidationError, match="duplicate id"):
        dedup_corpus([("a", "x y z"), ("a", "p q r")])


def test_tokenless_documents_are_kept_and_never_matched():
    docs = [("p1", "..."), ("p2", "..."), ("w", words(30))]
    result = dedup_corpus(docs, mode="both", seed=0)
    # "..." texts are byte-identical so exact dedup still applies
    assert result.kept_ids == ["p1", "w"]
    fuzzy_only = dedup_corpus([("p1", "..."), ("p2", "!!!"), ("w", words(30))], mode="fuzzy")
    assert fuzzy_only.removed_ids == []


def test_dedup_corpus_draws_the_family_once_and_tokenizes_each_document_once(monkeypatch):
    calls = {"tokenize": 0, "hash_family": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(dedup, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(dedup, name, counted)
    rng = np.random.default_rng(17)
    text = words(40, rng)
    docs = [("a", text), ("b", text), ("c", words(40, rng)), ("d", "..."), ("e", text + " tail")]
    result = dedup_corpus(docs, mode="both", seed=0)
    # "b" is an exact copy and never reaches the fuzzy pass; "d" does but has no tokens
    assert calls == {"tokenize": 4, "hash_family": 1}
    assert result.removed_ids == ["b", "e"]
