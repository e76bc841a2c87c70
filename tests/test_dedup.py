"""Tests for shingling, MinHash, LSH banding, and corpus deduplication."""

import hashlib
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from demix import dedup
from demix.dedup import (
    SHINGLE_BASE,
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


# --- reference implementations --------------------------------------------------
# The straightforward per-window and Python-int versions that the array ones in
# demix.dedup must match bit for bit.

MASK = 2**64 - 1


def ref_tokenize(text):
    tokens = []
    for token in text.lower().split():
        if all(unicodedata.category(ch).startswith("P") for ch in token):
            continue
        tokens.append(token)
    return tokens


def ref_digest(token):
    return int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big")


def ref_window_hash(tokens):
    """sum_j t_j R^(n-1-j) mod 2^64 over the digests t_j of an n-token window."""
    n = len(tokens)
    return sum(ref_digest(t) * SHINGLE_BASE ** (n - 1 - j) for j, t in enumerate(tokens)) & MASK


def ref_shingle(tokens, n):
    n = min(n, len(tokens))
    hashes = {ref_window_hash(tokens[i : i + n]) for i in range(len(tokens) - n + 1)}
    return np.array(sorted(hashes), dtype=np.uint64)


def ref_mod_affine(a, b, x):
    """SplitMix64's last finalizer step after a multiply-add, in Python ints."""
    v = (a * x + b) & MASK
    v ^= v >> 31
    return (v * 0x94D049BB133111EB) & MASK


# Inputs around the bits the multiply, the add and the shift by 31 care about:
# powers of two, all-ones halves and the top of the uint64 range.
EDGE_X = sorted({
    0, 1, 2, 3, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**33 - 1, 2**62, 2**63 - 1, 2**63,
    2**63 + 1, 2**64 - 2**32, 2**64 - 2**31, 2**64 - 2, 2**64 - 1,
})
U64 = st.one_of(st.integers(0, MASK), st.sampled_from(EDGE_X))

_WORD_CHARS = st.one_of(
    st.sampled_from(list("«»—–_¿¡!?.,;:'\"()[]{}…·、。")),  # punctuation, Unicode P* included
    st.sampled_from(list("éßñΩжİǅﬁ²½٣")),  # multi-byte letters and digits, odd case maps
    st.characters(min_codepoint=0x4E00, max_codepoint=0x9FFF),  # CJK
    st.sampled_from(list("abcxyz0123456789$+=<>")),
    st.characters(exclude_categories=["Cs"]),  # any text a UTF-8 corpus decodes to
)
_SEPARATORS = st.sampled_from([" ", "  ", "\n", "\t", "\x1c", "\x1d", "\x1e", "\x1f", "\u3000"])
_TEXTS = st.lists(
    st.tuples(st.text(_WORD_CHARS, min_size=1, max_size=6), _SEPARATORS), max_size=60
).map(lambda parts: "".join(word + sep for word, sep in parts))


@settings(max_examples=300, deadline=None)
@given(_TEXTS, st.integers(1, 30))
def test_tokenize_and_shingle_match_the_reference(text, n):
    tokens = tokenize(text)
    assert tokens == ref_tokenize(text)
    if tokens:
        hashes = shingle(tokens, n)
        assert hashes.dtype == np.uint64
        assert np.array_equal(hashes, ref_shingle(tokens, n))
        # A digest dict shared across documents changes no hash and gains
        # exactly this document's tokens.
        shared = {"unrelated": b"\x00" * 8}
        assert np.array_equal(shingle(tokens, n, digests=shared), hashes)
        assert set(shared) == {"unrelated", *tokens}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(U64, min_size=1, max_size=6),
    st.lists(U64, min_size=1, max_size=6),
    st.lists(U64, min_size=1, max_size=40),
)
def test_mod_affine_matches_the_reference_on_broadcast_arrays(a, b, x):
    k = min(len(a), len(b))
    a_col, b_col = np.array(a[:k], dtype=np.uint64)[:, None], np.array(b[:k], dtype=np.uint64)[:, None]
    got = mod_affine(a_col, b_col, np.array(x, dtype=np.uint64))
    assert got.dtype == np.uint64 and got.shape == (k, len(x))
    assert got.tolist() == [[ref_mod_affine(ai, bi, xi) for xi in x] for ai, bi in zip(a, b)]


def test_mod_affine_broadcasts_coefficients_against_edge_inputs_exactly():
    rng = np.random.default_rng(0)
    a = [1, 3, 2**31 + 1, 2**63 + 1, MASK] + rng.integers(0, 2**64, size=3, dtype=np.uint64).tolist()
    b = [0, MASK, 2**63, 0, MASK] + rng.integers(0, 2**64, size=3, dtype=np.uint64).tolist()
    x = EDGE_X + rng.integers(0, 2**64, size=5000, dtype=np.uint64).tolist()
    a_col, b_col = np.array(a, dtype=np.uint64)[:, None], np.array(b, dtype=np.uint64)[:, None]
    got = mod_affine(a_col, b_col, np.array(x, dtype=np.uint64))
    assert got.dtype == np.uint64 and got.shape == (len(a), len(x))
    assert got.tolist() == [[ref_mod_affine(ai, bi, xi) for xi in x] for ai, bi in zip(a, b)]
    # With a = 1 and b = 0 only the finalizer step is left.
    assert mod_affine(1, 0, np.array(EDGE_X, dtype=np.uint64)).tolist() == [
        ((v ^ (v >> 31)) * 0x94D049BB133111EB) & MASK for v in EDGE_X
    ]


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


def test_every_ngram_at_least_the_document_length_gives_one_whole_document_shingle():
    tokens = tokenize(words(30))
    whole = shingle(tokens, len(tokens))
    assert whole.tolist() == [ref_window_hash(tokens)]
    for n in (31, 48, 1000):
        assert np.array_equal(shingle(tokens, n), whole)


def test_identical_texts_identical_shingles():
    text = words(60)
    hashes = shingle(tokenize(text))
    assert np.array_equal(hashes, shingle(tokenize(text)))
    assert hashes.dtype == np.uint64 and np.all(hashes[1:] > hashes[:-1])  # sorted, distinct


def test_empty_document_rejected():
    with pytest.raises(ValidationError, match="empty document"):
        shingle(tokenize("...  !!"))


@pytest.mark.parametrize("n", [0, -3])
def test_an_ngram_below_one_is_rejected(n):
    with pytest.raises(ValidationError, match="n must be positive"):
        shingle(tokenize(words(30)), n)


# --- hash family -----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(U64, U64, U64)
def test_mod_affine_matches_python_int_arithmetic(a, b, x):
    got = mod_affine(np.uint64(a), np.uint64(b), np.uint64(x))
    assert int(got) == ref_mod_affine(a, b, x)


def test_hash_family_is_seeded_and_in_range():
    a1, b1 = hash_family(7)
    a2, b2 = hash_family(7)
    a3, _ = hash_family(8)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert not np.array_equal(a1, a3)
    assert a1.dtype == b1.dtype == np.uint64 and a1.shape == b1.shape == (dedup.NUM_HASHES,)
    assert np.all(a1 & np.uint64(1) == 1)  # odd, so x -> a x + b is a bijection mod 2^64
    # Drawn from the whole 64-bit range, not below 2^61 - 1.
    assert int(a1.max()) >= 2**63 and int(b1.max()) >= 2**63


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
    s1 = minhash([shingle(tokenize(text))], hash_family(3))[0]
    s2 = minhash([shingle(tokenize(text))], hash_family(3))[0]
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
            va, vb = minhash([sa, sb], hash_family(t))
            empirical = float(np.mean(va == vb))
            hits += abs(empirical - j) <= 0.12
        assert hits / trials >= 0.95


def test_disjoint_sets_rarely_match():
    rng = np.random.default_rng(12)
    rates = []
    for t in range(50):
        sa, sb = sets_with_jaccard(rng, union_size=60, jaccard=0.0)
        va, vb = minhash([sa, sb], hash_family(t))
        rates.append(float(np.mean(va == vb)))
    assert float(np.mean(rates)) <= 0.05


def ref_minhash(shingles, family):
    """One document's signature by the (NUM_HASHES x shingles) broadcast."""
    a, b = family
    return mod_affine(a[:, None], b[:, None], shingles[None, :]).min(axis=1)


def test_block_signing_matches_the_per_document_reference(monkeypatch):
    monkeypatch.setattr(dedup, "_SIGN_BLOCK", 64)
    rng = np.random.default_rng(18)
    # 40 + 24 fills the first block exactly; the 200-value document is longer
    # than a block and is one by itself; the rest share blocks unevenly.
    sizes = [40, 24, 200, 1, 63, 2, 64, 65, 30, 30, 30, 5, 1, 1]
    sets = [np.sort(rng.integers(0, 2**64, size=n, dtype=np.uint64)) for n in sizes]
    sets.append(sets[2].copy())  # a repeated document signs identically
    family = hash_family(4)
    blocks = []

    def recorded(a, b, x, _original=dedup.mod_affine):
        blocks.append(x.size)
        return _original(a, b, x)

    monkeypatch.setattr(dedup, "mod_affine", recorded)
    got = minhash(sets, family)
    # Consecutive documents share a block while they fit in 64 values.
    assert blocks == [n for n in (64, 200, 64, 2, 64, 65, 60, 37, 200) for _ in range(dedup.NUM_HASHES)]
    assert got.dtype == np.uint64 and got.shape == (len(sets), dedup.NUM_HASHES)
    for row, s in zip(got, sets):
        assert np.array_equal(row, ref_minhash(s, family))
    assert np.array_equal(got[2], got[-1])
    # The block size changes no signature.
    monkeypatch.setattr(dedup, "_SIGN_BLOCK", 2**16)
    assert np.array_equal(minhash(sets, family), got)


@pytest.mark.parametrize("where", [0, 2, 4])
def test_an_empty_shingle_set_anywhere_is_rejected(where):
    rng = np.random.default_rng(19)
    sets = [rng.integers(0, 2**64, size=8, dtype=np.uint64) for _ in range(4)]
    sets.insert(where, np.array([], dtype=np.uint64))
    with pytest.raises(ValidationError, match="empty shingle set"):
        minhash(sets, hash_family(0))


def test_no_documents_give_an_empty_signature_matrix():
    signatures = minhash([], hash_family(0))
    assert signatures.dtype == np.uint64 and signatures.shape == (0, dedup.NUM_HASHES)


# --- LSH banding ------------------------------------------------------------------


def test_exact_duplicates_always_pair():
    text = words(80)
    sig = minhash([shingle(tokenize(text))], hash_family(1))[0]
    sigs = np.stack([sig, sig])
    assert lsh_candidates(["a", "b"], sigs) == {("a", "b")}
    with pytest.raises(ValidationError, match="signature matrix"):
        lsh_candidates(["a"], sigs)


def test_unrelated_documents_never_pair():
    rng = np.random.default_rng(13)
    pairs = 0
    for t in range(1000):
        sa, sb = sets_with_jaccard(rng, union_size=50, jaccard=0.0)
        sigs = minhash([sa, sb], hash_family(t))
        pairs += len(lsh_candidates(["a", "b"], sigs))
    assert pairs == 0


def lsh_collision_rate(jaccard, trials, union_size=40, seed0=0):
    rng = np.random.default_rng(1234 + seed0)
    collisions = 0
    for t in range(trials):
        sa, sb = sets_with_jaccard(rng, union_size=union_size, jaccard=jaccard)
        sigs = minhash([sa, sb], hash_family(seed0 + t))
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
    result = dedup_corpus(docs)
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
    result = dedup_corpus(docs)
    assert result.removed_ids == []
    assert result.kept_ids == [d for d, _ in docs]


def test_partition_invariants_and_order_stability():
    rng = np.random.default_rng(16)
    text = words(60, rng)
    near = text.rsplit(" ", 1)[0] + " tail"
    docs = [("x", text), ("y", near), ("z", words(60, rng)), ("x2", text)]
    result = dedup_corpus(docs)
    all_ids = {d for d, _ in docs}
    assert set(result.kept_ids) | set(result.removed_ids) == all_ids
    assert set(result.kept_ids) & set(result.removed_ids) == set()
    for cluster in result.clusters:
        assert cluster[0] in result.kept_ids
        assert all(m in result.removed_ids for m in cluster[1:])
    again = dedup_corpus(docs)
    assert again.kept_ids == result.kept_ids
    assert again.clusters == result.clusters


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(
        st.lists(st.sampled_from(["red", "blue", "green", "grey", "!"]), max_size=6).map(" ".join),
        max_size=12,
    ),
    ngram=st.integers(1, 3),
)
def test_every_list_in_the_result_is_in_corpus_order(texts, ngram):
    docs = [(f"d{i}", text) for i, text in enumerate(texts)]
    # Short n-grams, so that these few-word texts are often near duplicates.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dedup, "DEFAULT_NGRAM", ngram)
        result = dedup_corpus(docs)
    place = {doc_id: i for i, (doc_id, _) in enumerate(docs)}

    def in_corpus_order(doc_ids):
        return doc_ids == sorted(doc_ids, key=place.__getitem__)

    assert in_corpus_order(result.kept_ids)
    assert in_corpus_order(result.removed_ids)
    assert in_corpus_order([cluster[0] for cluster in result.clusters])
    assert all(in_corpus_order(cluster) for cluster in result.clusters)
    assert sorted(result.kept_ids + result.removed_ids, key=place.__getitem__) == list(place)
    assert {c[0] for c in result.clusters} <= set(result.kept_ids)
    assert sorted(m for c in result.clusters for m in c[1:]) == sorted(result.removed_ids)
    assert set(result.removal_reasons) == set(result.removed_ids)


def test_duplicate_ids_rejected():
    with pytest.raises(ValidationError, match="duplicate id"):
        dedup_corpus([("a", "x y z"), ("a", "p q r")])


def test_tokenless_documents_are_kept_and_never_matched():
    docs = [("p1", "..."), ("p2", "..."), ("w", words(30))]
    result = dedup_corpus(docs)
    # "..." texts are byte-identical so exact dedup still applies
    assert result.kept_ids == ["p1", "w"]
    distinct = dedup_corpus([("p1", "..."), ("p2", "!!!"), ("w", words(30))])
    assert distinct.removed_ids == []


def test_the_signing_block_size_changes_no_report(monkeypatch):
    rng = np.random.default_rng(20)
    texts = [words(int(n), rng, vocab=300) for n in rng.integers(1, 120, size=40)]
    docs = [(f"d{i}", text) for i, text in enumerate(texts)]
    docs += [(f"n{i}", texts[i].rsplit(" ", 1)[0] + " tail") for i in range(0, 40, 3)]
    # 5-grams, so that one changed word leaves most of a short text's shingles.
    monkeypatch.setattr(dedup, "DEFAULT_NGRAM", 5)
    default = dedup_corpus(docs).to_report()
    assert default["removed"]  # the near copies are found
    monkeypatch.setattr(dedup, "_SIGN_BLOCK", 64)
    assert dedup_corpus(docs).to_report() == default


def count_calls(monkeypatch, names):
    """Calls of each of the ``dedup`` functions ``names`` made in this process."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(dedup, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(dedup, name, counted)
    return calls


def counting_corpus():
    rng = np.random.default_rng(17)
    text = words(40, rng)
    return [("a", text), ("b", text), ("c", words(40, rng)), ("d", "..."), ("e", text + " tail")]


def test_dedup_corpus_draws_the_family_once_and_tokenizes_each_document_once(monkeypatch):
    calls = count_calls(monkeypatch, ["tokenize", "hash_family"])
    result = dedup_corpus(counting_corpus())
    # "b" is an exact copy and never reaches the fuzzy pass; "d" does but has no tokens
    assert calls == {"tokenize": 4, "hash_family": 1}
    assert result.removed_ids == ["b", "e"]


def test_dedup_corpus_hashes_each_distinct_token_once_per_call(monkeypatch):
    docs = counting_corpus()
    # "b" is an exact copy, "d" has no tokens.
    distinct = {t for doc_id, text in docs if doc_id != "b" for t in tokenize(text)}
    hashed = []
    blake2b = hashlib.blake2b

    def counted(data, **kwargs):
        hashed.append(data)
        return blake2b(data, **kwargs)

    monkeypatch.setattr(hashlib, "blake2b", counted)
    first = dedup_corpus(docs)
    assert sorted(hashed) == sorted(t.encode("utf-8") for t in distinct)
    # The digests live for one call only: a second call hashes every token again.
    assert dedup_corpus(docs) == first
    assert len(hashed) == 2 * len(distinct)


def test_a_one_document_corpus_forks_nothing(forks):
    assert dedup_corpus([("a", words(30))]).kept_ids == ["a"]
    assert forks == []
