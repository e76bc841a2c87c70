"""Corpus deduplication: exact removal of byte-identical texts plus fuzzy
near-duplicate detection with word 24-gram shingles, 260 MinHash functions
and 20x13 LSH banding (a collision curve whose midpoint sits near Jaccard
0.79 and that fires almost surely above 0.9 similarity).

A document's shingles are one sorted uint64 array of distinct n-gram hashes.
The MinHash signatures of a corpus are one (documents x 260) uint64 matrix,
and LSH band k is its column slice [13k, 13k + 13).

Each document is encoded once; its n-gram hashes are blake2b digests of
slices of that buffer. A signature is the row-wise minimum of exact
(a x + b) mod 2^61-1 over the shingles. :func:`mod_affine` computes it in
uint64 without overflow: x is reduced below p first, so of the three 32-bit
limb products only the low one reaches 2^64 and needs folding, and the sum of
the folded terms stays below 2^64 (its docstring gives the bound per step).

A document's signature depends on its own text alone, so where
:func:`demix.forking.can_fork` holds, :func:`dedup_corpus` signs the
documents up to half the corpus's text itself while a forked child signs the
rest and sends its rows back pickled up a pipe. The child dies with its
parent and is reaped before the call returns. The rows are joined in corpus
order, so the result does not depend on the fork: a child that fails, or a
fork that does, leaves its part to be signed in the calling process.
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
import unicodedata
from dataclasses import dataclass, field

import numpy as np

from . import forking
from .errors import ValidationError

MERSENNE_PRIME = np.uint64((1 << 61) - 1)  # 2^61 - 1
DEFAULT_NGRAM = 24
NUM_HASHES = 260
NUM_BANDS = 20
BAND_SIZE = 13

_LOW32 = np.uint64(0xFFFFFFFF)
_LOW29 = np.uint64((1 << 29) - 1)


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


def shingle(tokens: list[str], n: int = DEFAULT_NGRAM) -> np.ndarray:
    """Sorted distinct uint64 hashes of the word n-grams of a tokenized
    document; documents shorter than n tokens yield one whole-document
    shingle rather than being dropped.

    An n-gram's hash is the big-endian 8-byte blake2b digest of its tokens
    joined by ``"\\x1f"`` in UTF-8. The whole document is encoded once and
    each window hashed as a slice of it: UTF-8 is concatenative, so the slice
    between two token offsets is the encoding of that window's join.
    """
    if n < 1:
        raise ValidationError("shingle: n must be positive")
    if not tokens:
        raise ValidationError("shingle: empty document")
    n = min(n, len(tokens))
    buf = "\x1f".join(tokens).encode("utf-8")
    # starts[i] is the byte offset of token i, counting a separator after
    # every token; the window of tokens i..i+n-1 ends one byte before starts[i + n].
    starts = [0, *itertools.accumulate(len(t.encode("utf-8")) + 1 for t in tokens)]
    digests = b"".join(
        hashlib.blake2b(buf[s : e - 1], digest_size=8).digest() for s, e in zip(starts, starts[n:])
    )
    return np.unique(np.frombuffer(digests, dtype=">u8").astype(np.uint64))


def hash_family(seed: int, count: int = NUM_HASHES) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (a_k, b_k) coefficients for h_k(x) = (a_k x + b_k) mod 2^61-1."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), 0x6D696E68])))
    p = int(MERSENNE_PRIME)
    a = rng.integers(1, p, size=count, dtype=np.uint64)
    b = rng.integers(0, p, size=count, dtype=np.uint64)
    return a, b


def mod_affine(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact (a*x + b) mod p, p = 2^61 - 1, in uint64 arithmetic.

    ``a``, ``b`` must be < p; ``x`` may use the full 64 bits. Shapes
    broadcast, so (K,1) coefficients against (m,) inputs give a (K,m) result.

    Every step stays below 2^64, using 2^61 = 1 mod p:

    - x is first reduced below p: (x >> 61) + (x & p) <= 7 + p, and
      ``minimum(u, u - p)`` picks u - p exactly when u >= p (below p, u - p
      wraps around past 2^63). The x side is small, and a*x + b mod p is
      unchanged.
    - With 32-bit limbs a = a_hi 2^32 + a_lo and x = x_hi 2^32 + x_lo, where
      a_hi, x_hi < 2^29 and a_lo, x_lo < 2^32,
      a*x = a_hi x_hi 2^64 + (a_hi x_lo + a_lo x_hi) 2^32 + a_lo x_lo.
    - 2^64 = 8 mod p, and (8 a_hi) x_hi < 2^32 2^29 = 2^61.
    - mid = a_hi x_lo + a_lo x_hi < 2^62, and mid 2^32 = (mid >> 29) 2^61 +
      (mid & (2^29 - 1)) 2^32 = (mid >> 29) + (mid & (2^29 - 1)) 2^32 mod p,
      which is below 2^33 + 2^61.
    - a_lo x_lo < 2^64 is folded once to (v >> 61) + (v & p) <= p + 7.
    - With b < p the sum is below 2^63 + 2^34; one fold takes it to at most
      p + 4, and a final ``minimum(u, u - p)`` to below p.

    The (K,m) work is done in one result array and two scratch arrays,
    about twenty in-place passes.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    x = np.asarray(x, dtype=np.uint64)
    p = MERSENNE_PRIME
    x = (x >> np.uint64(61)) + (x & p)
    x = np.minimum(x, np.subtract(x, p))
    a_hi, a_lo = a >> np.uint64(32), a & _LOW32
    x_hi, x_lo = x >> np.uint64(32), x & _LOW32
    shape = np.broadcast_shapes(a.shape, b.shape, x.shape)
    out, s1, s2 = np.empty(shape, np.uint64), np.empty(shape, np.uint64), np.empty(shape, np.uint64)
    np.multiply(a_hi << np.uint64(3), x_hi, out=out)
    np.multiply(a_hi, x_lo, out=s1)
    np.multiply(a_lo, x_hi, out=s2)
    s1 += s2
    np.right_shift(s1, np.uint64(29), out=s2)
    out += s2
    s1 &= _LOW29
    s1 <<= np.uint64(32)
    out += s1
    np.multiply(a_lo, x_lo, out=s1)
    np.right_shift(s1, np.uint64(61), out=s2)
    s1 &= p
    out += s1
    out += s2
    out += b
    np.right_shift(out, np.uint64(61), out=s1)
    out &= p
    out += s1
    np.subtract(out, p, out=s1)
    np.minimum(out, s1, out=out)
    return out


def minhash(shingles: np.ndarray, family: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The NUM_HASHES minimum hash values of one document's shingles under the
    affine family ``(a, b)`` drawn by :func:`hash_family`."""
    if len(shingles) == 0:
        raise ValidationError("minhash: empty shingle set")
    a, b = family
    return mod_affine(a[:, None], b[:, None], np.asarray(shingles)[None, :]).min(axis=1)


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


def dedup_corpus(
    docs,
    mode: str = "both",
    seed: int = 0,
    ngram: int = DEFAULT_NGRAM,
) -> DedupResult:
    """Deduplicate (doc_id, text) pairs; keeps the earliest document of every
    duplicate cluster.

    ``exact`` removes byte-identical texts, ``fuzzy`` clusters LSH candidate
    pairs with union-find, ``both`` runs exact then fuzzy on the survivors.
    Documents with no tokens at all are kept and never matched fuzzily.

    The fuzzy pass may sign the second half of the text in a forked child
    (see the module docstring), which dies with this process and is reaped
    before the call returns; the result is the same either way.
    """
    if mode not in ("exact", "fuzzy", "both"):
        raise ValidationError(f"dedup_corpus: unknown mode {mode!r}")
    if ngram < 1:
        raise ValidationError(f"dedup_corpus: ngram must be at least 1, got {ngram}")
    if seed < 0:
        raise ValidationError(f"dedup_corpus: seed must be non-negative, got {seed}")
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

    surviving = list(ids)
    if mode in ("exact", "both"):
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

    if mode in ("fuzzy", "both"):
        family = hash_family(seed)

        def sign(doc_ids: list[str]) -> tuple[list[str], np.ndarray]:
            """The ids of ``doc_ids`` that have tokens, and their signatures."""
            hashed_ids, rows = [], []
            for doc_id in doc_ids:
                tokens = tokenize(texts[doc_id])
                if tokens:
                    hashed_ids.append(doc_id)
                    rows.append(minhash(shingle(tokens, n=ngram), family))
            return hashed_ids, np.array(rows, dtype=np.uint64).reshape(len(rows), NUM_HASHES)

        # This process signs the documents up to half the text, a child the rest.
        half = sum(len(texts[doc_id]) for doc_id in surviving) / 2
        lengths = itertools.accumulate(len(texts[doc_id]) for doc_id in surviving)
        cut = next((i for i, total in enumerate(lengths, 1) if total >= half), len(surviving))
        rest = surviving[cut:]
        child = None
        if rest and forking.can_fork():
            child = forking.fork(lambda: pickle.dumps(sign(rest)))
        if child is None:
            hashed_ids, signatures = sign(surviving)
        else:
            try:
                hashed_ids, signatures = sign(surviving[:cut])
            finally:
                data, status = forking.join(child)
            # A child that failed sent nothing whole: its part is signed here.
            rest_ids, rest_signatures = pickle.loads(data) if status == 0 else sign(rest)
            hashed_ids += rest_ids
            signatures = np.concatenate([signatures, rest_signatures])
        for a, b in sorted(lsh_candidates(hashed_ids, signatures)):
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
