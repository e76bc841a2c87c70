"""Simplex sampling, the rank predictor, and the iterative mixture search.

The search alternates evaluation and regression: evaluate a first batch of
uniformly sampled mixture ratios, fit a gradient-boosted-tree predictor on
the (lower-is-better) ranking scores collected so far, score a large fresh
pool of uniform samples, and evaluate the top predicted candidates. After the
last iteration the predictor is refit once more and the final mixture is the
renormalized coordinatewise mean of the best-predicted pool candidates.

Ranking scores are macro-average ranks of the evaluated proxies among each
other, recomputed over the whole population every time the predictor is fit.
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
        self.per_iteration_counts = counts

    def total_evaluations(self) -> int:
        return sum(self.per_iteration_counts)


@dataclass
class PredictorConfig:
    learning_rate: float = 0.02
    n_rounds: int = 300
    max_depth: int = 3
    min_samples_leaf: int = 2


@dataclass
class RankPredictor:
    """Fitted predictor mapping a mixture ratio to a predicted ranking score."""

    model: BoostedTreesRegressor
    n_dims: int

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_dims:
            raise ValidationError(
                f"predictor expects {self.n_dims}-dim ratios, got shape {X.shape}"
            )
        return self.model.predict(X)


@dataclass
class ProxyEvaluation:
    """One evaluated mixture: per-benchmark scores, and once the search has
    recorded it, its position in the transcript and its ranking score."""

    ratio: MixtureRatio
    per_benchmark_scores: dict[str, float]
    ranking_score: float | None = None
    index: int = -1
    iteration: int = -1

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
    final_top_k: int = 0
    final_pool_size: int = 0

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


def fit_predictor(
    observations: list[tuple[MixtureRatio, float]],
    config: PredictorConfig | None = None,
) -> RankPredictor:
    """Fit boosted trees mapping ratio coordinates to ranking scores."""
    config = config or PredictorConfig()
    if len(observations) < 2:
        raise ValidationError("fit_predictor: need at least 2 observations")
    n_dims = len(observations[0][0])
    ids = observations[0][0].candidate_ids
    for ratio, target in observations:
        if ratio.candidate_ids != ids:
            raise ValidationError("fit_predictor: observations use different candidates")
        if not np.isfinite(target):
            raise ValidationError("fit_predictor: non-finite target")
    X = np.stack([ratio.weights for ratio, _ in observations])
    y = np.array([target for _, target in observations])
    model = BoostedTreesRegressor(
        learning_rate=config.learning_rate,
        n_rounds=config.n_rounds,
        max_depth=config.max_depth,
        min_samples_leaf=config.min_samples_leaf,
    ).fit(X, y)
    return RankPredictor(model=model, n_dims=n_dims)


def predict(predictor: RankPredictor, ratio: MixtureRatio) -> float:
    if len(ratio) != predictor.n_dims:
        raise ValidationError(
            f"predict: ratio has {len(ratio)} dims, predictor expects {predictor.n_dims}"
        )
    return float(predictor.predict_matrix(ratio.weights[None, :])[0])


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
    predictor_config: PredictorConfig | None = None,
    benchmark_domains: dict[str, str] | None = None,
) -> tuple[MixtureRatio, SearchTranscript]:
    """Run the full iterative search; returns the final mixture and transcript.

    ``evaluator`` maps a MixtureRatio to a ProxyEvaluation and must be pure:
    the same ratio always yields the same scores. Evaluator failures are
    re-raised as SearchError with the offending ratio attached. The number of
    evaluator calls is exactly ``plan.total_evaluations()``.
    """
    predictor_config = predictor_config or PredictorConfig()
    n_dims = len(candidate_ids)
    if n_dims < 1:
        raise ValidationError("run_search: need at least one candidate")
    counts = plan.per_iteration_counts
    streams = np.random.SeedSequence(plan.rng_seed).spawn(len(counts) + 1)
    transcript = SearchTranscript()
    benchmarks: list[str] | None = None

    def evaluate_batch(ratios: list[MixtureRatio], iteration: int) -> None:
        nonlocal benchmarks
        for ratio in ratios:
            try:
                evaluation = evaluator(ratio)
            except SearchError:
                raise
            except Exception as exc:
                raise SearchError(
                    f"evaluator failed on ratio {ratio.as_dict()}: {exc}", ratio=ratio
                ) from exc
            scores = {str(k): float(v) for k, v in evaluation.per_benchmark_scores.items()}
            if not scores or not all(np.isfinite(v) for v in scores.values()):
                raise SearchError(
                    f"evaluator returned invalid scores for ratio {ratio.as_dict()}", ratio=ratio
                )
            if benchmarks is None:
                benchmarks = sorted(scores)
            elif sorted(scores) != benchmarks:
                raise SearchError("evaluator changed its benchmark set mid-search", ratio=ratio)
            transcript.evaluations.append(
                ProxyEvaluation(
                    index=len(transcript.evaluations),
                    iteration=iteration,
                    ratio=ratio,
                    per_benchmark_scores=scores,
                )
            )

    def fit_on_all(after_iteration: int) -> RankPredictor:
        targets = _ranking_targets(transcript.evaluations, benchmark_domains)
        observations = [
            (rec.ratio, float(t)) for rec, t in zip(transcript.evaluations, targets)
        ]
        transcript.fits.append(
            FitRecord(
                after_iteration=after_iteration,
                n_observations=len(observations),
                targets=[float(t) for t in targets],
            )
        )
        return fit_predictor(observations, predictor_config)

    rng0 = np.random.Generator(np.random.PCG64(streams[0]))
    first = [
        MixtureRatio(weights=row, candidate_ids=list(candidate_ids))
        for row in _sample_rows(rng0, counts[0], n_dims)
    ]
    evaluate_batch(first, iteration=0)

    for t in range(1, len(counts)):
        predictor = fit_on_all(after_iteration=t - 1)
        rng = np.random.Generator(np.random.PCG64(streams[t]))
        pool = _sample_rows(rng, plan.final_candidate_pool, n_dims)
        preds = predictor.predict_matrix(pool)
        picked = np.argsort(preds, kind="stable")[: counts[t]]
        transcript.selections.append(
            SelectionRecord(
                iteration=t,
                pool_size=int(pool.shape[0]),
                n_selected=int(picked.size),
                max_selected_prediction=float(preds[picked].max()),
                median_pool_prediction=float(np.median(preds)),
            )
        )
        chosen = [
            MixtureRatio(weights=pool[i], candidate_ids=list(candidate_ids)) for i in picked
        ]
        evaluate_batch(chosen, iteration=t)

    predictor = fit_on_all(after_iteration=len(counts) - 1)
    rng = np.random.Generator(np.random.PCG64(streams[-1]))
    pool = _sample_rows(rng, plan.final_candidate_pool, n_dims)
    preds = predictor.predict_matrix(pool)
    top = np.argsort(preds, kind="stable")[: plan.top_k_average]
    mean = pool[top].mean(axis=0)
    best = MixtureRatio(weights=mean / mean.sum(), candidate_ids=list(candidate_ids))

    final_targets = _ranking_targets(transcript.evaluations, benchmark_domains)
    for rec, target in zip(transcript.evaluations, final_targets):
        rec.ranking_score = float(target)
    transcript.final_top_k = int(plan.top_k_average)
    transcript.final_pool_size = int(pool.shape[0])
    return best, transcript
