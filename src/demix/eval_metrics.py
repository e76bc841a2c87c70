"""Ranking-consistency metrics: Spearman's rho, top-quartile rho, capability
recovery, and per-domain / macro-average ranks over benchmark score tables.

Conventions used throughout: benchmark scores are "higher is better", rank 1
is best, and tied values receive the average of the ranks they span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MetricError, ValidationError


def midranks(values) -> np.ndarray:
    """1-based ascending ranks with ties averaged."""
    xs = np.asarray(values, dtype=np.float64)
    order = np.argsort(xs, kind="stable")
    ranks = np.empty(xs.size, dtype=np.float64)
    i = 0
    while i < xs.size:
        j = i
        while j + 1 < xs.size and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def descending_ranks(values) -> np.ndarray:
    """1-based ranks where the largest value gets rank 1, ties averaged."""
    xs = np.asarray(values, dtype=np.float64)
    return xs.size + 1.0 - midranks(xs)


def spearman_rho(xs, ys) -> float:
    """Pearson correlation of the two rank vectors."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise MetricError("spearman_rho: inputs must be equal-length vectors")
    if xs.size < 2:
        raise MetricError("spearman_rho: need at least 2 points")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise MetricError("spearman_rho: non-finite input")
    rx = midranks(xs)
    ry = midranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    vx = float(np.dot(rx, rx))
    vy = float(np.dot(ry, ry))
    if vx == 0.0 or vy == 0.0:
        raise MetricError("degenerate ranking: zero rank variance")
    rho = float(np.dot(rx, ry) / math.sqrt(vx * vy))
    return min(1.0, max(-1.0, rho))


def top_quartile_rho(reference_scores: dict[str, float], proxy_scores: dict[str, float]) -> float:
    """Spearman's rho restricted to the quarter of models the reference ranks best.

    The quartile holds ceil(n/4) models selected by reference score (higher is
    better; ties broken by model id for determinism).
    """
    if set(reference_scores) != set(proxy_scores):
        raise MetricError("top_quartile_rho: model sets differ")
    n = len(reference_scores)
    if n < 8:
        raise MetricError("top_quartile_rho: need at least 8 models")
    q = math.ceil(n / 4)
    selected = sorted(reference_scores, key=lambda m: (-reference_scores[m], m))[:q]
    return spearman_rho(
        [reference_scores[m] for m in selected], [proxy_scores[m] for m in selected]
    )


def capability_recovery(proxy_avg: float, reference_avg: float) -> float:
    """Quotient of proxy average benchmark score to reference average."""
    if not (reference_avg > 0.0):
        raise MetricError(f"capability_recovery: nonpositive reference average {reference_avg!r}")
    return float(proxy_avg) / float(reference_avg)


@dataclass
class ScoreTable:
    """Rectangular model x benchmark score table with a benchmark→domain map."""

    rows: dict[str, dict[str, float]]
    domain_of: dict[str, str]

    def __post_init__(self):
        if not self.rows:
            raise ValidationError("score table: no models")
        benchmarks = None
        for model, scores in self.rows.items():
            if benchmarks is None:
                benchmarks = set(scores)
            elif set(scores) != benchmarks:
                raise ValidationError(f"score table: model {model!r} has a different benchmark set")
            for bench, value in scores.items():
                if not np.isfinite(value):
                    raise ValidationError(f"score table: non-finite score for {model!r}/{bench!r}")
        missing = benchmarks - set(self.domain_of)
        if missing:
            raise ValidationError(f"score table: missing domain mapping for {sorted(missing)}")

    def models(self) -> list[str]:
        return sorted(self.rows)

    def benchmarks(self) -> list[str]:
        return sorted(next(iter(self.rows.values())))

    def domains(self) -> list[str]:
        return sorted({self.domain_of[b] for b in self.benchmarks()})

    def domain_average(self, model: str, domain: str) -> float:
        scores = [
            v for b, v in self.rows[model].items() if self.domain_of[b] == domain
        ]
        if not scores:
            raise ValidationError(f"score table: domain {domain!r} has no benchmarks")
        return float(np.mean(scores))

    def overall_average(self, model: str) -> float:
        return float(np.mean(list(self.rows[model].values())))


def rank_table(table: ScoreTable) -> dict[str, tuple[dict[str, float], float]]:
    """Per-domain ranks (by domain-average score) and macro rank for every model."""
    models = table.models()
    domains = table.domains()
    per_model_domain_ranks: dict[str, dict[str, float]] = {m: {} for m in models}
    for domain in domains:
        averages = [table.domain_average(m, domain) for m in models]
        ranks = descending_ranks(averages)
        for m, r in zip(models, ranks):
            per_model_domain_ranks[m][domain] = float(r)
    out = {}
    for m in models:
        domain_ranks = per_model_domain_ranks[m]
        out[m] = (domain_ranks, float(np.mean(list(domain_ranks.values()))))
    return out


def consistency_report(reference: ScoreTable, proxy: ScoreTable) -> dict:
    """Spearman agreement of proxy and reference domain-average scores, and
    the mean capability recovery: the ``consistency.json`` document.

    Correlations are computed over per-model domain averages; the macro value
    is the unweighted mean over domains. Top-quartile values restrict each
    domain to the quarter of models with the best reference averages and are
    reported only when the table is large enough to hold a quartile.
    """
    if reference.models() != proxy.models():
        raise ValidationError("consistency_report: model sets differ")
    if reference.benchmarks() != proxy.benchmarks():
        raise ValidationError("consistency_report: benchmark sets differ")
    if reference.domain_of != proxy.domain_of:
        raise ValidationError("consistency_report: domain mappings differ")
    models = reference.models()
    per_domain = {}
    top_quartile = {}
    for domain in reference.domains():
        ref_avg = {m: reference.domain_average(m, domain) for m in models}
        prox_avg = {m: proxy.domain_average(m, domain) for m in models}
        per_domain[domain] = spearman_rho(
            [ref_avg[m] for m in models], [prox_avg[m] for m in models]
        )
        if len(models) >= 8:
            top_quartile[domain] = top_quartile_rho(ref_avg, prox_avg)
    recoveries = [
        capability_recovery(proxy.overall_average(m), reference.overall_average(m))
        for m in models
    ]
    return {
        "per_domain_rho": per_domain,
        "macro_avg_rho": float(np.mean(list(per_domain.values()))),
        "top_quartile_rho": top_quartile,
        "top_quartile_macro": (
            float(np.mean(list(top_quartile.values()))) if top_quartile else None
        ),
        "mean_capability_recovery": float(np.mean(recoveries)),
        "n_models": len(models),
    }
