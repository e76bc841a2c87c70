"""Simplex sampling and the iterative mixture search.

The search is one loop with one pass per plan entry. The first pass
evaluates a batch of uniformly sampled mixture ratios; each later pass
evaluates the rows the previous pass kept (one evaluator call scores a
pass's ratios, a row of scores each). Every pass then refits one boosted-tree
regressor of ``gbdt_rounds`` rounds on the (lower-is-better) ranking scores
of every evaluation so far, scores a fresh pool of ``pool`` uniform samples
from that pass's own random stream, and keeps the best-predicted rows: the
next plan count, or on the last pass ``top_k`` rows, whose renormalized
coordinatewise mean is the final mixture. :class:`SamplePlan` is the
config's ``[search]`` section, so its fields are the keys a user writes.

Ranking scores are macro-average ranks of the evaluated proxies among each
other, recomputed over the whole population every time the regressor is fit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import SearchError, ValidationError
from .eval_metrics import ScoreTable, rank_table
from .gbdt import BoostedTreesRegressor
from .merge_engine import MixtureRatio


@dataclass
class SamplePlan:
    """The ``[search]`` section: the evaluation budget per pass (``plan``),
    the size of each scored pool (``pool``), the number of best-predicted
    rows the final mixture averages (``top_k``) and the boosting rounds of
    each fit (``gbdt_rounds``)."""

    plan: list[int] = field(default_factory=lambda: [64, 32, 16])
    pool: int = 100_000
    top_k: int = 128
    gbdt_rounds: int = 300

    def __post_init__(self):
        counts = [int(c) for c in self.plan]
        if not counts or any(c <= 0 for c in counts):
            raise ValidationError("search: plan counts must be positive")
        if counts[0] < 2:
            # The predictor is first fit on the first iteration's evaluations.
            raise ValidationError("search: the first plan count must be at least 2")
        if self.pool <= 0 or self.top_k <= 0:
            raise ValidationError("search: pool and top_k must be positive")
        if self.top_k > self.pool:
            raise ValidationError("search: top_k exceeds pool")
        # Each later iteration evaluates the best members of one pool.
        for c in counts[1:]:
            if c > self.pool:
                raise ValidationError(f"search: plan count {c} exceeds the pool of {self.pool}")
        if self.gbdt_rounds < 1:
            raise ValidationError("search: gbdt_rounds must be at least 1")
        self.plan = counts

    def total_evaluations(self) -> int:
        return sum(self.plan)


@dataclass
class ProxyEvaluation:
    """One evaluated mixture in the search transcript: its position, its
    per-benchmark scores and, once the search ends, its ranking score."""

    ratio: MixtureRatio
    per_benchmark_scores: dict[str, float]
    index: int
    iteration: int
    ranking_score: float | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "index": self.index,
                "iteration": self.iteration,
                "ratio": self.ratio.as_dict(),
                "scores": {k: self.per_benchmark_scores[k] for k in sorted(self.per_benchmark_scores)},
                "ranking_score": self.ranking_score,
            },
            sort_keys=True,
        )


@dataclass
class SearchTranscript:
    evaluations: list[ProxyEvaluation] = field(default_factory=list)

    def to_jsonl(self) -> str:
        return "\n".join(rec.to_json() for rec in self.evaluations) + "\n"


def _sample_rows(rng: np.random.Generator, count: int, n_dims: int) -> np.ndarray:
    """Uniform draws from the simplex via normalized exponential coordinates."""
    try:
        if n_dims == 1:
            return np.ones((count, 1))
        e = rng.standard_exponential((count, n_dims))
    except (MemoryError, ValueError):  # numpy's "array is too big" is a ValueError
        raise ValidationError(
            f"cannot hold {count} draws over {n_dims} candidates in memory"
        ) from None
    # In place: the same division without a second pool-sized array.
    e /= e.sum(axis=1, keepdims=True)
    return e


def sample_simplex(
    n_dims: int, count: int, seed: int, candidate_ids: list[str] | None = None
) -> list[MixtureRatio]:
    """``count`` mixture ratios distributed uniformly on the simplex."""
    if n_dims < 1 or count < 1:
        raise ValidationError("sample_simplex: n_dims and count must be positive")
    ids = candidate_ids if candidate_ids is not None else [f"c{i}" for i in range(n_dims)]
    if len(ids) != n_dims:
        raise ValidationError("sample_simplex: candidate_ids length must equal n_dims")
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = _sample_rows(rng, count, n_dims)
    return [MixtureRatio(weights=row, candidate_ids=list(ids)) for row in rows]


def _ranking_targets(
    records: list[ProxyEvaluation], benchmark_domains: dict[str, str]
) -> np.ndarray:
    """Macro-average rank of every evaluated proxy within the population so far."""
    rows = {f"e{rec.index:05d}": rec.per_benchmark_scores for rec in records}
    ranked = rank_table(ScoreTable(rows=rows, domain_of=benchmark_domains))
    return np.array([ranked[f"e{rec.index:05d}"][1] for rec in records])


def _lowest(values: np.ndarray, keep: int) -> np.ndarray:
    """The indices of the ``keep`` lowest of the finite ``values``, lowest
    first and ties in index order: ``np.argsort(values, kind="stable")[:keep]``,
    without sorting the values above the ``keep``-th lowest."""
    cut = np.partition(values, keep - 1)[keep - 1]
    below = np.flatnonzero(values <= cut)  # every tie with the keep-th lowest, in index order
    return below[np.argsort(values[below], kind="stable")[:keep]]


def run_search(
    evaluator,
    candidate_ids: list[str],
    plan: SamplePlan,
    seed: int,
    benchmark_domains: dict[str, str],
) -> tuple[MixtureRatio, SearchTranscript]:
    """Run the full iterative search; returns the final mixture and transcript.

    ``evaluator`` maps a pass's list of MixtureRatio to an iterable of their
    per-benchmark scores, one ``dict[str, float]`` per ratio in order, and
    must be pure: the same ratio always yields the same scores. It is called
    once per plan entry, so it scores exactly ``plan.total_evaluations()``
    rows. A row that fails as it is read (a lazy evaluator scores row j as
    it yields it), is empty or is not finite is a SearchError naming its
    ratio; a row count other than the pass's is a SearchError too. One
    ``BoostedTreesRegressor`` of ``plan.gbdt_rounds`` rounds is refit on
    every evaluation so far after each pass, on macro ranks over the domains
    ``benchmark_domains`` maps the evaluator's benchmarks to. ``seed`` fixes
    every draw, so the same arguments give the same search.
    """
    n_dims = len(candidate_ids)
    if n_dims < 1:
        raise ValidationError("run_search: need at least one candidate")
    counts = plan.plan
    predictor = BoostedTreesRegressor(n_rounds=plan.gbdt_rounds)
    streams = np.random.SeedSequence(seed).spawn(len(counts) + 1)
    transcript = SearchTranscript()
    evaluations = transcript.evaluations
    rows = _sample_rows(np.random.Generator(np.random.PCG64(streams[0])), counts[0], n_dims)
    for iteration, stream in enumerate(streams[1:]):
        ratios = [MixtureRatio(weights=row, candidate_ids=list(candidate_ids)) for row in rows]
        scored = None  # the evaluator's rows, read one at a time so a failure names its row
        for ratio in ratios:
            try:
                scored = iter(evaluator(ratios)) if scored is None else scored
                scores = {str(k): float(v) for k, v in next(scored).items()}
            except StopIteration:
                raise SearchError(f"evaluator returned too few rows for {len(ratios)} ratios")
            except SearchError:
                raise
            except Exception as exc:
                raise SearchError(
                    f"evaluator failed on ratio {ratio.as_dict()}: {exc}", ratio=ratio
                ) from exc
            if not scores or not all(np.isfinite(v) for v in scores.values()):
                raise SearchError(
                    f"evaluator returned invalid scores for ratio {ratio.as_dict()}", ratio=ratio
                )
            if evaluations and sorted(scores) != sorted(evaluations[0].per_benchmark_scores):
                raise SearchError("evaluator changed its benchmark set mid-search", ratio=ratio)
            evaluations.append(ProxyEvaluation(ratio, scores, len(evaluations), iteration))
        if next(scored, None) is not None:
            raise SearchError(f"evaluator returned too many rows for {len(ratios)} ratios")
        # Refit on the renormalized ratio weights the evaluator saw, then keep
        # the best-predicted rows of a fresh pool: the next batch, or after
        # the last batch the rows the final mixture averages.
        targets = _ranking_targets(evaluations, benchmark_domains)
        predictor.fit(np.stack([rec.ratio.weights for rec in evaluations]), targets)
        pool = _sample_rows(np.random.Generator(np.random.PCG64(stream)), plan.pool, n_dims)
        keep = counts[iteration + 1] if iteration + 1 < len(counts) else plan.top_k
        rows = pool[_lowest(predictor.predict(pool), keep)]
        del pool  # so two pools are never held at once

    mean = rows.mean(axis=0)
    best = MixtureRatio(weights=mean / mean.sum(), candidate_ids=list(candidate_ids))
    # The last fit ranks the whole population, so its targets are the
    # transcript's ranking scores.
    for rec, target in zip(evaluations, targets.tolist()):
        rec.ranking_score = target
    return best, transcript
