"""Simplex sampling and the iterative mixture search.

The search alternates evaluation and regression: evaluate a first batch of
uniformly sampled mixture ratios (the evaluator returns each one's
per-benchmark scores), fit the caller's boosted-tree regressor on the
(lower-is-better) ranking scores collected so far, score a large fresh pool
of uniform samples, and evaluate the top predicted candidates. After the last
iteration the regressor is refit once more and the final mixture is the
renormalized coordinatewise mean of the best-predicted pool candidates.

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
class FitRecord:
    after_iteration: int
    n_observations: int
    targets: list[float]


@dataclass
class SelectionRecord:
    iteration: int
    pool_size: int
    n_selected: int
    max_selected_prediction: float
    median_pool_prediction: float


@dataclass
class SearchTranscript:
    evaluations: list[ProxyEvaluation] = field(default_factory=list)
    fits: list[FitRecord] = field(default_factory=list)
    selections: list[SelectionRecord] = field(default_factory=list)

    def to_jsonl(self) -> str:
        return "\n".join(rec.to_json() for rec in self.evaluations) + "\n"


def _sample_rows(rng: np.random.Generator, count: int, n_dims: int) -> np.ndarray:
    """Uniform draws from the simplex via normalized exponential coordinates."""
    if n_dims == 1:
        return np.ones((count, 1))
    e = rng.standard_exponential((count, n_dims))
    return e / e.sum(axis=1, keepdims=True)


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
    records: list[ProxyEvaluation], benchmark_domains: dict[str, str] | None
) -> np.ndarray:
    """Macro-average rank of every evaluated proxy within the population so far."""
    rows = {f"e{rec.index:05d}": rec.per_benchmark_scores for rec in records}
    benchmarks = sorted(records[0].per_benchmark_scores)
    if benchmark_domains is None:
        domain_of = {b: b for b in benchmarks}
    else:
        domain_of = dict(benchmark_domains)
    ranked = rank_table(ScoreTable(rows=rows, domain_of=domain_of))
    return np.array([ranked[f"e{rec.index:05d}"][1] for rec in records])


def run_search(
    evaluator,
    candidate_ids: list[str],
    plan: SamplePlan,
    predictor: BoostedTreesRegressor,
    benchmark_domains: dict[str, str] | None = None,
) -> tuple[MixtureRatio, SearchTranscript]:
    """Run the full iterative search; returns the final mixture and transcript.

    ``evaluator`` maps a MixtureRatio to its per-benchmark scores (a
    ``dict[str, float]``) and must be pure: the same ratio always yields the
    same scores. Evaluator failures are re-raised as SearchError with the
    offending ratio attached. The number of evaluator calls is exactly
    ``plan.total_evaluations()``. ``predictor`` is refit on every evaluation
    so far before each selection and once more for the final mixture.
    """
    n_dims = len(candidate_ids)
    if n_dims < 1:
        raise ValidationError("run_search: need at least one candidate")
    counts = plan.per_iteration_counts
    streams = np.random.SeedSequence(plan.rng_seed).spawn(len(counts) + 1)
    transcript = SearchTranscript()

    def evaluate_batch(rows: np.ndarray, iteration: int) -> None:
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

    def fit_and_score_pool(after_iteration: int, k: int):
        """Refit on every evaluation so far, then score a fresh uniform pool.
        Returns the ranking targets, the pool's predictions, and the indices
        and rows of its ``k`` best-predicted members, best first. Only those
        rows outlive the call, so two pools are never held at once."""
        targets = _ranking_targets(transcript.evaluations, benchmark_domains)
        transcript.fits.append(
            FitRecord(
                after_iteration=after_iteration,
                n_observations=targets.size,
                targets=targets.tolist(),
            )
        )
        # Fit on the renormalized ratio weights the evaluator saw.
        predictor.fit(np.stack([rec.ratio.weights for rec in transcript.evaluations]), targets)
        rng = np.random.Generator(np.random.PCG64(streams[after_iteration + 1]))
        pool = _sample_rows(rng, plan.final_candidate_pool, n_dims)
        preds = predictor.predict(pool)
        top = np.argsort(preds, kind="stable")[:k]
        return targets, preds, top, pool[top]

    rng0 = np.random.Generator(np.random.PCG64(streams[0]))
    evaluate_batch(_sample_rows(rng0, counts[0], n_dims), iteration=0)

    for t in range(1, len(counts)):
        _, preds, picked, rows = fit_and_score_pool(t - 1, counts[t])
        transcript.selections.append(
            SelectionRecord(
                iteration=t,
                pool_size=int(preds.size),
                n_selected=int(picked.size),
                max_selected_prediction=float(preds[picked].max()),
                median_pool_prediction=float(np.median(preds)),
            )
        )
        evaluate_batch(rows, iteration=t)

    # The final fit ranks the whole population, so its targets are the
    # transcript's ranking scores.
    targets, _, _, rows = fit_and_score_pool(len(counts) - 1, plan.top_k_average)
    mean = rows.mean(axis=0)
    best = MixtureRatio(weights=mean / mean.sum(), candidate_ids=list(candidate_ids))
    for rec, target in zip(transcript.evaluations, targets.tolist()):
        rec.ranking_score = target
    return best, transcript
