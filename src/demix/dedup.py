"""Corpus deduplication: exact removal of byte-identical texts plus fuzzy
near-duplicate detection with word 24-gram shingles, 260 MinHash functions
and 20x13 LSH banding (a collision curve whose midpoint sits near Jaccard
0.79 and that fires almost surely above 0.9 similarity).

A document's shingles are one sorted uint64 array of distinct n-gram hashes.
The MinHash signatures of a corpus are one (documents x 260) uint64 matrix,
and LSH band k is its column slice [13k, 13k + 13).

A token's digest t is the big-endian 8-byte blake2b digest of its UTF-8
bytes, computed once per distinct token in a :func:`dedup_corpus` call. An
n-gram's hash is the polynomial sum_j t_j R^(n-1-j) mod 2^64 over its tokens'
digests, with the fixed odd base R = :data:`SHINGLE_BASE`: the rolling hash of
Karp and Rabin (IBM J. Res. Dev. 1987) over token digests. R is odd, so it
has an inverse mod 2^64, and every window of a document is the difference of
two prefix sums of t_j R^-j times a power of R; a window costs the same
whatever n is.

A signature is the minimum of h(x) = f((a x + b) mod 2^64) over a document's
shingles, for 260 seeded pairs of an odd a and any b. The multiply-add is the
multiply-shift family of Dietzfelbinger et al. (J. Algorithms 1997); f is the
last step of the SplitMix64 finalizer (Steele, Lea and Flood, OOPSLA 2014),
v ^= v >> 31 then v *= 0x94D049BB133111EB, which folds the well-mixed high
bits of the product into its low ones and multiplies them back up. All of it
wraps in uint64 array arithmetic, with no reduction modulo a prime.

The corpus is signed in blocks: the shingles of consecutive documents are
concatenated into one contiguous array of at most :data:`_SIGN_BLOCK` values,
each hash function in turn is applied to the whole block with scalar
coefficients, and ``np.minimum.reduceat`` at the documents' starts gives
that function's column of the block's signatures.
"""

from __future__ import annotations

import hashlib
import itertools
import unicodedata
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .gbdt import _run_starts

DEFAULT_NGRAM = 24
NUM_BANDS = 20
BAND_SIZE = 13
NUM_HASHES = NUM_BANDS * BAND_SIZE
HASH_SEED = 0
# The golden-ratio increment of SplitMix64; any odd base would do.
SHINGLE_BASE = 0x9E3779B97F4A7C15
FINALIZER_SHIFT = np.uint64(31)
FINALIZER_MULTIPLIER = np.uint64(0x94D049BB133111EB)

_SHINGLE_BASE_INVERSE = pow(SHINGLE_BASE, -1, 1 << 64)
# Values per signing block. A contiguous block with scalar coefficients avoids
# the stride-0 operand of a (260, 1) coefficient column, with which numpy's
# uint64 multiply and add run 2-3x slower; and at 2**16 values (512 KB) each
# pass stays in cache, where one block of a whole 136k-value corpus signed 4x
# slower.
_SIGN_BLOCK = 2**16


def tokenize(text: str) -> list[str]:
    """Lowercased whitespace tokens with punctuation-only tokens dropped."""
    tokens = []
    for token in text.lower().split():
        # No alphanumeric character has a P* category, so an all-alphanumeric
        # token is kept without looking up each character's category.
        if token.isalnum() or not all(
            unicodedata.category(ch).startswith("P") for ch in token
        ):
            tokens.append(token)
    return tokens


def _powers(base: int, count: int) -> np.ndarray:
    """base^0, ..., base^(count-1) mod 2^64."""
    powers = np.full(count, base, dtype=np.uint64)
    powers[0] = 1
    return np.cumprod(powers, out=powers)


def shingle(
    tokens: list[str], n: int = DEFAULT_NGRAM, digests: dict[str, bytes] | None = None
) -> np.ndarray:
    """Sorted distinct uint64 hashes of the word n-grams of a tokenized
    document; documents shorter than n tokens yield one whole-document
    shingle rather than being dropped.

    An n-gram's hash is sum_j t_j R^(n-1-j) mod 2^64 over the digests t_j of
    its tokens (see the module docstring). ``digests`` maps tokens to their
    8-byte digests; the ones missing are added to it, so a caller that passes
    one dict for many documents hashes each distinct token once.
    """
    if n < 1:
        raise ValidationError("shingle: n must be positive")
    if not tokens:
        raise ValidationError("shingle: empty document")
    if digests is None:
        digests = {}
    for token in set(tokens).difference(digests):
        digests[token] = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    t = np.frombuffer(b"".join(map(digests.__getitem__, tokens)), dtype=">u8").astype(np.uint64)
    m, n = len(t), min(n, len(tokens))
    # prefix[i] = sum_{j<i} t_j R^-j, so the window at i is
    # (prefix[i + n] - prefix[i]) R^(i + n - 1).
    prefix = np.zeros(m + 1, dtype=np.uint64)
    np.cumsum(t * _powers(_SHINGLE_BASE_INVERSE, m), dtype=np.uint64, out=prefix[1:])
    hashes = (prefix[n:] - prefix[:-n]) * _powers(SHINGLE_BASE, m)[n - 1 :]
    hashes.sort()
    return hashes[_run_starts(hashes)]


def hash_family(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded coefficients (a_k, b_k), a_k odd, of the NUM_HASHES MinHash
    functions h_k(x) = f((a_k x + b_k) mod 2^64) of :func:`mod_affine`."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), 0x6D696E68])))
    a = rng.integers(0, 1 << 64, size=NUM_HASHES, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, 1 << 64, size=NUM_HASHES, dtype=np.uint64)
    return a, b


def mod_affine(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """f((a*x + b) mod 2^64), f(v) = (v ^ (v >> 31)) * 0x94D049BB133111EB
    mod 2^64, in wrapping uint64 arithmetic.

    :func:`minhash` passes one hash function's scalar coefficients and a
    block of shingles, but any shapes broadcast. The work is done in the
    result array, so even 0-d inputs wrap and never warn on overflow.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    x = np.asarray(x, dtype=np.uint64)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape, x.shape), dtype=np.uint64)
    np.multiply(a, x, out=out)
    out += b
    out ^= out >> FINALIZER_SHIFT
    out *= FINALIZER_MULTIPLIER
    return out


def minhash(
    shingle_sets: list[np.ndarray], family: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """The (documents x NUM_HASHES) MinHash signatures of a list of
    documents' shingle arrays under the family ``(a, b)`` drawn by
    :func:`hash_family`: row i is the minimum of each hash function over
    ``shingle_sets[i]``.

    Consecutive documents are signed together in blocks of at most
    :data:`_SIGN_BLOCK` values (a longer document is a block by itself), one
    hash function at a time over the whole block.
    """
    a, b = family
    sizes = np.array([len(s) for s in shingle_sets], dtype=np.int64)
    if not sizes.all():
        raise ValidationError("minhash: empty shingle set")
    ends = np.cumsum(sizes)
    starts = ends - sizes
    signatures = np.empty((sizes.size, a.size), dtype=np.uint64)
    first = 0
    while first < sizes.size:
        # Documents first..last-1: all that end within _SIGN_BLOCK values, at least one.
        last = max(first + 1, int(np.searchsorted(ends, starts[first] + _SIGN_BLOCK, side="right")))
        block = np.concatenate(shingle_sets[first:last], dtype=np.uint64)
        at = starts[first:last] - starts[first]
        for k in range(a.size):
            signatures[first:last, k] = np.minimum.reduceat(mod_affine(a[k], b[k], block), at)
        first = last
    return signatures


def lsh_candidates(doc_ids: list[str], signatures: np.ndarray) -> set[tuple[str, str]]:
    """Pairs of documents whose signatures agree on every column of at least
    one band; row i of ``signatures`` belongs to ``doc_ids[i]``.

    Bucketing is by (band index, band bytes) so runtime stays near-linear in
    the corpus until buckets actually collide.
    """
    if signatures.shape != (len(doc_ids), NUM_HASHES):
        raise ValidationError(
            f"lsh_candidates: expected a {len(doc_ids)}x{NUM_HASHES} signature matrix, "
            f"got shape {signatures.shape}"
        )
    buckets: dict[tuple[int, bytes], list[int]] = {}
    for band_idx in range(NUM_BANDS):
        cols = slice(band_idx * BAND_SIZE, (band_idx + 1) * BAND_SIZE)
        for pos in range(len(doc_ids)):
            buckets.setdefault((band_idx, signatures[pos, cols].tobytes()), []).append(pos)
    pairs: set[tuple[str, str]] = set()
    for members in buckets.values():
        for i, j in itertools.combinations(members, 2):
            a, b = doc_ids[i], doc_ids[j]
            pairs.add((a, b) if a <= b else (b, a))
    return pairs


class _UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, item: str) -> str:
        root = item
        while self.parent.setdefault(root, root) != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass
class DedupResult:
    kept_ids: list[str]
    removed_ids: list[str]
    clusters: list[list[str]] = field(default_factory=list)
    removal_reasons: dict[str, str] = field(default_factory=dict)

    def to_report(self) -> dict:
        return {
            "kept": self.kept_ids,
            "removed": [
                {"id": doc_id, "reason": self.removal_reasons[doc_id]}
                for doc_id in self.removed_ids
            ],
            "clusters": self.clusters,
            "counts": {
                "kept": len(self.kept_ids),
                "removed": len(self.removed_ids),
                "clusters": len(self.clusters),
            },
        }


def dedup_corpus(docs) -> DedupResult:
    """Deduplicate (doc_id, text) pairs; keeps the earliest document of every
    duplicate cluster.

    An exact pass removes byte-identical texts; a fuzzy pass then clusters
    the survivors' LSH candidate pairs with union-find. Documents with no
    tokens at all are kept and never matched fuzzily.

    The fuzzy pass draws the hash family of :data:`HASH_SEED`, tokenizes and
    shingles the surviving documents one at a time into word
    :data:`DEFAULT_NGRAM`-grams, and signs all their shingle arrays (8 bytes
    a window) with one :func:`minhash` call. A token's digest is computed the
    first time it appears and kept until the call returns (see the module
    docstring for the window hash, the MinHash family and the signing blocks).
    """
    ids: list[str] = []
    texts: dict[str, str] = {}
    for doc_id, text in docs:
        doc_id = str(doc_id)
        if doc_id in texts:
            raise ValidationError(f"dedup_corpus: duplicate id {doc_id!r}")
        ids.append(doc_id)
        texts[doc_id] = str(text)
    order = {doc_id: i for i, doc_id in enumerate(ids)}
    uf = _UnionFind()
    reasons: dict[str, str] = {}

    first_by_text: dict[str, str] = {}
    surviving = []
    for doc_id in ids:
        text = texts[doc_id]
        if text in first_by_text:
            uf.union(first_by_text[text], doc_id)
            reasons[doc_id] = "exact"
        else:
            first_by_text[text] = doc_id
            surviving.append(doc_id)

    digests: dict[str, bytes] = {}
    hashed_ids, shingle_sets = [], []
    for doc_id in surviving:
        tokens = tokenize(texts[doc_id])
        if tokens:
            hashed_ids.append(doc_id)
            shingle_sets.append(shingle(tokens, n=DEFAULT_NGRAM, digests=digests))
    for a, b in sorted(lsh_candidates(hashed_ids, minhash(shingle_sets, hash_family(HASH_SEED)))):
        uf.union(a, b)

    # Filled in corpus order, so each group and the groups themselves are
    # ordered by their members' and representatives' places in the corpus.
    groups: dict[str, list[str]] = {}
    for doc_id in ids:
        groups.setdefault(uf.find(doc_id), []).append(doc_id)
    kept = [members[0] for members in groups.values()]
    clusters = [members for members in groups.values() if len(members) > 1]
    removed = sorted((m for c in clusters for m in c[1:]), key=order.__getitem__)
    for doc_id in removed:
        reasons.setdefault(doc_id, "fuzzy")
    return DedupResult(
        kept_ids=kept, removed_ids=removed, clusters=clusters, removal_reasons=reasons
    )
