"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed and the size, so the
same seed always gives the same inputs. The program under test receives only
what these functions write: a config file, component archives or a corpus.
"""

from __future__ import annotations

import difflib
import json
from pathlib import Path

import numpy as np

# The paper's default loop is the empty config; the wide lab is the
# 8-domain MLP variant whose proxy fidelity is lowest.
SEARCH_LABS = {
    "search_default": {},
    "search_wide": {
        "n_domains": 8, "feature_dim": 256, "family": "mlp_1hidden", "hidden_units": 64,
    },
}
# Reduced sizes for the self-test only.
SMALL_SEARCH = {
    "search": {"pool": 2000, "plan": "8,4,4", "top_k": 16, "gbdt_rounds": 20},
    "references": {"count": 6},
}
SMALL_WIDE_LAB = {"n_domains": 4, "feature_dim": 32, "hidden_units": 8}

# Labs per search run: the first SEARCH_COLD_RUNS run the whole, timed
# pipeline; the rest only feed the quality metric. Lab j of a run has
# experiment seed LABS_PER_RUN * seed + j.
SEARCH_COLD_RUNS = 2
LABS_PER_RUN = 4
# The consistency stage does not read the search section, so the quality-only
# labs shrink the search to almost nothing.
QUALITY_ONLY_SEARCH = {"pool": 64, "plan": "4", "top_k": 8, "gbdt_rounds": 5}


def search_config(workload: str, seed: int, lab_index: int, small: bool) -> str:
    """The `.ini` text of one search run: only the seed and the lab differ
    from the defaults (plus the reduced sizes of the self-test, and the tiny
    search of the quality-only labs)."""
    sections: dict[str, dict] = {"experiment": {"seed": seed * LABS_PER_RUN + lab_index}}
    lab = dict(SEARCH_LABS[workload])
    if small and lab:
        lab.update(SMALL_WIDE_LAB)
    if lab:
        sections["lab"] = lab
    if small:
        sections.update(SMALL_SEARCH)
    if lab_index >= SEARCH_COLD_RUNS:
        sections["search"] = QUALITY_ONLY_SEARCH
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


# --- merge_10m ------------------------------------------------------------

# About 10M float64 values per component, over tensors of uneven size.
MERGE_TENSORS = {"embed": 2_500_000, "layer0.w": 3_000_000, "layer1.w": 3_000_000,
                 "head": 1_500_000, "norm": 4096}
MERGE_COMPONENTS = 3
MERGE_DISTINCT_RATIOS = 4


def merge_inputs(seed: int, small: bool) -> tuple[dict[str, dict[str, np.ndarray]], list[list[float]]]:
    """Component tensors (a shared base plus a small per-component update, as
    fine-tuned components look) and the ratios the calls cycle through."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x4D45])))
    scale = 1000 if small else 1
    components = {f"comp{i}": {} for i in range(MERGE_COMPONENTS)}
    for name, size in MERGE_TENSORS.items():
        base = 0.02 * rng.standard_normal(max(size // scale, 1))
        for comp in components.values():
            comp[name] = base + 1e-3 * rng.standard_normal(base.size)
    ratios = rng.dirichlet(np.ones(MERGE_COMPONENTS), size=MERGE_DISTINCT_RATIOS)
    return components, [list(map(float, r / r.sum())) for r in ratios]


def ratio_arg(ratio: list[float]) -> str:
    """Ratio as `demix merge --ratio` text; repr round-trips every float."""
    return ",".join(repr(w) for w in ratio)


# --- dedup_corpus ---------------------------------------------------------

# Corpus shape. Of every 500 documents, 350 are originals, 50 are exact
# copies and 100 are near-duplicates of an original.
DEDUP_DOCS = 500
DEDUP_EXACT_SHARE = 0.10
DEDUP_NEAR_SHARE = 0.20
DOC_WORDS = (250, 350)
VOCAB_SIZE = 20_000
ZIPF_EXPONENT = 1.1
# A near-duplicate gets 1, 2 or 3 localized edits (a third of the copies
# each). An edit replaces, inserts or deletes a span of 1-5 words, as a
# changed date, name or phrase in a templated page does. A quarter of the
# copies also gain or lose a 10-15 word boilerplate sentence at one end.
EDITS_PER_COPY = (1, 2, 3)
EDIT_SPAN = (1, 5)
BOILERPLATE_SHARE = 0.25
BOILERPLATE_WORDS = (10, 15)


def _vocabulary(rng: np.random.Generator) -> list[str]:
    syllables = [c + v for c in "bdfghjklmnprstvz" for v in "aeiou"]
    words: set[str] = set()
    while len(words) < VOCAB_SIZE:
        n = int(rng.integers(2, 5))
        words.add("".join(syllables[i] for i in rng.integers(0, len(syllables), n)))
    return sorted(words)


def dedup_corpus(seed: int, small: bool) -> tuple[list[dict], list[dict]]:
    """(docs, planted): docs are `{"id", "text"}` in corpus order; planted
    lists every duplicate with its source, kind, edit count and the share of
    its words that differ from the source."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xDED])))
    vocab = _vocabulary(rng)
    probs = 1.0 / np.arange(1, VOCAB_SIZE + 1) ** ZIPF_EXPONENT
    probs /= probs.sum()

    def words(lo: int, hi: int) -> list[str]:
        return [vocab[i] for i in rng.choice(VOCAB_SIZE, size=int(rng.integers(lo, hi + 1)), p=probs)]

    n_docs = 60 if small else DEDUP_DOCS
    n_exact = round(n_docs * DEDUP_EXACT_SHARE)
    n_near = round(n_docs * DEDUP_NEAR_SHARE)
    n_orig = n_docs - n_exact - n_near
    length = (60, 90) if small else DOC_WORDS
    originals = [words(*length) for _ in range(n_orig)]

    copies = []  # (source index, kind, edits, tokens)
    for _ in range(n_exact):
        src = int(rng.integers(n_orig))
        copies.append((src, "exact", 0, originals[src]))
    for k in range(n_near):
        src = int(rng.integers(n_orig))
        n_edits = EDITS_PER_COPY[k % len(EDITS_PER_COPY)]
        tokens = list(originals[src])
        for _ in range(n_edits):
            at = int(rng.integers(len(tokens)))
            span = int(rng.integers(EDIT_SPAN[0], EDIT_SPAN[1] + 1))
            op = int(rng.integers(3))
            if op == 0:
                tokens[at:at + span] = words(span, span)
            elif op == 1:
                tokens[at:at] = words(span, span)
            else:
                del tokens[at:at + span]
        if rng.random() < BOILERPLATE_SHARE:
            extra = words(*BOILERPLATE_WORDS)
            if rng.random() < 0.5:
                tokens = extra + tokens if rng.random() < 0.5 else tokens + extra
            else:
                tokens = tokens[len(extra):] if rng.random() < 0.5 else tokens[:-len(extra)]
        copies.append((src, "near", n_edits, tokens))

    # Every copy lands after its source, so "keep the earliest" keeps the
    # original; the ids follow corpus order.
    order: list[tuple[str, int]] = [("orig", i) for i in range(n_orig)]
    for c in rng.permutation(len(copies)):
        src_pos = order.index(("orig", copies[c][0]))
        order.insert(int(rng.integers(src_pos + 1, len(order) + 1)), ("copy", int(c)))
    ids = {entry: f"doc{pos:04d}" for pos, entry in enumerate(order)}
    docs = []
    for entry in order:
        tokens = originals[entry[1]] if entry[0] == "orig" else copies[entry[1]][3]
        docs.append({"id": ids[entry], "text": " ".join(tokens)})
    planted = []
    for c, (src, kind, n_edits, tokens) in enumerate(copies):
        source = originals[src]
        planted.append({
            "id": ids[("copy", c)],
            "source": ids[("orig", src)],
            "kind": kind,
            "edits": n_edits,
            "changed_words": round(_changed_share(source, tokens), 4),
        })
    planted.sort(key=lambda p: p["id"])
    return docs, planted


def _changed_share(source: list[str], copy: list[str]) -> float:
    """Share of the source's word positions not matched in the copy (a
    longest-common-subsequence diff; both are a few hundred words)."""
    matched = sum(b.size for b in difflib.SequenceMatcher(None, source, copy, autojunk=False)
                  .get_matching_blocks())
    return 1.0 - matched / max(len(source), len(copy))


def write_jsonl(path: Path, docs: list[dict]) -> None:
    path.write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in docs))
