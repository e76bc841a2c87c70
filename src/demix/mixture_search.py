"""Simplex sampling and the iterative mixture search.

The search is one loop with one pass per plan entry. The first pass
evaluates a batch of uniformly sampled mixture ratios; each later pass
evaluates the rows the previous pass kept (the evaluator returns each
ratio's per-benchmark scores). Every pass then refits the caller's
boosted-tree regressor on the (lower-is-better) ranking scores of every
evaluation so far, scores a large fresh pool of uniform samples from that
pass's own random stream, and keeps the best-predicted rows: the next plan
count, or on the last pass ``top_k_average`` rows, whose renormalized
coordinatewise mean is the final mixture.

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
    """Evaluation budget and pool sizes for the iterative search."""

    per_iteration_counts: list[int] = field(default_factory=lambda: [64, 32, 16])
    final_candidate_pool: int = 100_000
    top_k_average: int = 128
    rng_seed: int = 0

    def __post_init__(self):
        counts = [int(c) for c in self.per_iteration_counts]
        if not counts or any(c <= 0 for c in counts):
            raise ValidationError("sample plan: per-iteration counts must be positive")
        if counts[0] < 2:
            # The predictor is first fit on the first iteration's evaluations.
            raise ValidationError("sample plan: the first plan count must be at least 2")
        if self.final_candidate_pool <= 0 or self.top_k_average <= 0:
            raise ValidationError("sample plan: pool and top-k must be positive")
        if self.top_k_average > self.final_candidate_pool:
            raise ValidationError("sample plan: top_k_average exceeds final_candidate_pool")
        # Each later iteration evaluates the best members of one pool.
        for c in counts[1:]:
            if c > self.final_candidate_pool:
                raise ValidationError(
                    f"sample plan: plan count {c} exceeds the pool of {self.final_candidate_pool}"
                )
        self.per_iteration_counts = counts

    def total_evaluations(self) -> int:
        return sum(self.per_iteration_counts)


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
    if n_dims == 1:
        return np.ones((count, 1))
    e = rng.standard_exponential((count, n_dims))
    # In place: the same division without a second pool-sized array.
    e /= e.sum(axis=1, keepdims=True)
    return e


def sample_simplex(
    n_dims: int, count: int, seed: int, candidate_ids: list[str] | None = None
) -> list[MixtureRatio]:
    """``count`` mixture ratios distributed uniformly on the simplex."""
    if n_dims < 1 or count < 1:
        raise ValidationError("sample_simplex: n_dims and count must be positive")
    ids = candidate_ids if candidate_ids is not None else _default_ids(n_dims)
    if len(ids) != n_dims:
        raise ValidationError("sample_simplex: candidate_ids length must equal n_dims")
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = _sample_rows(rng, count, n_dims)
    return [MixtureRatio(weights=row, candidate_ids=list(ids)) for row in rows]


def _default_ids(n_dims: int) -> list[str]:
    return [f"c{i}" for i in range(n_dims)]


def _ranking_targets(
    records: list[ProxyEvaluation], benchmark_domains: dict[str, str]
) -> np.ndarray:
    """Macro-average rank of every evaluated proxy within the population so far."""
    rows = {f"e{rec.index:05d}": rec.per_benchmark_scores for rec in records}
    ranked = rank_table(ScoreTable(rows=rows, domain_of=benchmark_domains))
    return np.array([ranked[f"e{rec.index:05d}"][1] for rec in records])


def run_search(
    evaluator,
    candidate_ids: list[str],
    plan: SamplePlan,
    predictor: BoostedTreesRegressor,
    benchmark_domains: dict[str, str],
) -> tuple[MixtureRatio, SearchTranscript]:
    """Run the full iterative search; returns the final mixture and transcript.

    ``evaluator`` maps a MixtureRatio to its per-benchmark scores (a
    ``dict[str, float]``) and must be pure: the same ratio always yields the
    same scores. Evaluator failures are re-raised as SearchError with the
    offending ratio attached. The number of evaluator calls is exactly
    ``plan.total_evaluations()``. ``predictor`` is refit on every evaluation
    so far after each batch, once per plan entry, on macro ranks over the
    domains ``benchmark_domains`` maps the evaluator's benchmarks to.
    """
    n_dims = len(candidate_ids)
    if n_dims < 1:
        raise ValidationError("run_search: need at least one candidate")
    counts = plan.per_iteration_counts
    streams = np.random.SeedSequence(plan.rng_seed).spawn(len(counts) + 1)
    transcript = SearchTranscript()
    rows = _sample_rows(np.random.Generator(np.random.PCG64(streams[0])), counts[0], n_dims)
    for iteration, stream in enumerate(streams[1:]):
        for row in rows:
            ratio = MixtureRatio(weights=row, candidate_ids=list(candidate_ids))
            try:
                scores = {str(k): float(v) for k, v in evaluator(ratio).items()}
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
            first = transcript.evaluations[:1]
            if first and sorted(scores) != sorted(first[0].per_benchmark_scores):
                raise SearchError("evaluator changed its benchmark set mid-search", ratio=ratio)
            transcript.evaluations.append(
                ProxyEvaluation(
                    index=len(transcript.evaluations),
                    iteration=iteration,
                    ratio=ratio,
                    per_benchmark_scores=scores,
                )
            )
        # Refit on the renormalized ratio weights the evaluator saw, then keep
        # the best-predicted rows of a fresh pool: the next batch, or after
        # the last batch the rows the final mixture averages.
        targets = _ranking_targets(transcript.evaluations, benchmark_domains)
        predictor.fit(np.stack([rec.ratio.weights for rec in transcript.evaluations]), targets)
        pool = _sample_rows(
            np.random.Generator(np.random.PCG64(stream)), plan.final_candidate_pool, n_dims
        )
        keep = counts[iteration + 1] if iteration + 1 < len(counts) else plan.top_k_average
        rows = pool[np.argsort(predictor.predict(pool), kind="stable")[:keep]]
        del pool  # so two pools are never held at once

    mean = rows.mean(axis=0)
    best = MixtureRatio(weights=mean / mean.sum(), candidate_ids=list(candidate_ids))
    # The last fit ranks the whole population, so its targets are the
    # transcript's ranking scores.
    for rec, target in zip(transcript.evaluations, targets.tolist()):
        rec.ranking_score = target
    return best, transcript
