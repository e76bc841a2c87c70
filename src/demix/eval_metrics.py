"""Ranking-consistency metrics: Spearman's rho, top-quartile rho, capability
recovery, and per-domain / macro-average ranks over benchmark score tables.

Conventions used throughout: benchmark scores are "higher is better", rank 1
is best, and tied values receive the average of the ranks they span.

A :class:`ScoreTable` holds its numbers as arrays in sorted model, benchmark
and domain order: ``scores`` (models × benchmarks) and ``domain_scores``
(models × domains). Every mean runs over a C-contiguous row in ``benchmarks()``
order, so it adds pairwise as ``np.mean`` of that row's list does; tables demix
writes insert benchmarks in that order. ``rank_table`` keeps its dict output
because the search ranks through it and the benchmark harness times it there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MetricError, ValidationError


def midranks(values) -> np.ndarray:
    """1-based ascending ranks with ties averaged."""
    xs = np.asarray(values, dtype=np.float64)
    order = np.argsort(xs, kind="stable")
    ordered = xs[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], xs.size] - 1
    ranks = np.empty(xs.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def spearman_rho(xs, ys, names=("xs", "ys")) -> float:
    """Pearson correlation of the two rank vectors; ``names`` label them in errors."""
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
        name = names[0] if vx == 0.0 else names[1]
        raise MetricError(f"degenerate ranking: zero rank variance in {name}")
    rho = float(np.dot(rx, ry) / math.sqrt(vx * vy))
    return min(1.0, max(-1.0, rho))


def top_quartile_rho(reference, proxy, names=("reference", "proxy")) -> float:
    """Spearman's rho over the ceil(n/4) models with the best ``reference`` scores.
    The two aligned vectors hold one score per model in sorted model order, so
    tied reference scores go to the lower model id."""
    reference = np.asarray(reference, dtype=np.float64)
    proxy = np.asarray(proxy, dtype=np.float64)
    if reference.shape != proxy.shape or reference.ndim != 1:
        raise MetricError("top_quartile_rho: inputs must be equal-length vectors")
    if reference.size < 8:
        raise MetricError("top_quartile_rho: need at least 8 models")
    top = np.argsort(-reference, kind="stable")[: math.ceil(reference.size / 4)]
    return spearman_rho(reference[top], proxy[top], [f"the top quartile of {n}" for n in names])


def capability_recovery(proxy_avg, reference_avg):
    """Quotient of proxy average benchmark score to reference average, elementwise."""
    reference_avg = np.asarray(reference_avg, dtype=np.float64)
    if not np.all(reference_avg > 0.0):
        raise MetricError(
            f"capability_recovery: nonpositive reference average {reference_avg.min()}"
        )
    return np.asarray(proxy_avg, dtype=np.float64) / reference_avg


@dataclass
class ScoreTable:
    """Rectangular model x benchmark score table with a benchmark→domain map."""

    rows: dict[str, dict[str, float]]
    domain_of: dict[str, str]
    scores: np.ndarray = field(init=False, repr=False, compare=False)
    domain_scores: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.rows:
            raise ValidationError("score table: no models")
        benchmarks = set(next(iter(self.rows.values())))
        if not benchmarks:
            raise ValidationError("score table: no benchmarks")
        for model, scores in self.rows.items():
            if set(scores) != benchmarks:
                raise ValidationError(f"score table: model {model!r} has a different benchmark set")
        missing = benchmarks - set(self.domain_of)
        if missing:
            raise ValidationError(f"score table: missing domain mapping for {sorted(missing)}")
        models, benches = self.models(), self.benchmarks()
        self.scores = np.array([[self.rows[m][b] for b in benches] for m in models], dtype=np.float64)
        bad = np.argwhere(~np.isfinite(self.scores))
        if bad.size:
            model, bench = bad[0]
            raise ValidationError(
                f"score table: non-finite score for {models[model]!r}/{benches[bench]!r}"
            )
        # A boolean column selection comes back strided, and a strided mean
        # adds left to right; a contiguous copy adds as np.mean of a list does.
        domain_of = np.array([self.domain_of[b] for b in benches])
        blocks = [np.ascontiguousarray(self.scores[:, domain_of == d]) for d in self.domains()]
        self.domain_scores = np.stack([block.mean(axis=1) for block in blocks], axis=1)

    def models(self) -> list[str]:
        return sorted(self.rows)

    def benchmarks(self) -> list[str]:
        return sorted(next(iter(self.rows.values())))

    def domains(self) -> list[str]:
        return sorted({self.domain_of[b] for b in self.benchmarks()})


def rank_table(table: ScoreTable) -> dict[str, tuple[dict[str, float], float]]:
    """Per-domain ranks (by domain-average score) and macro rank for every model."""
    n = len(table.rows)
    ranks = np.stack([n + 1.0 - midranks(col) for col in table.domain_scores.T], axis=1)
    domains = table.domains()
    return {
        model: (dict(zip(domains, row)), macro)
        for model, row, macro in zip(table.models(), ranks.tolist(), ranks.mean(axis=1).tolist())
    }


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
    n = len(reference.rows)
    per_domain = {}
    top_quartile = {}
    for j, domain in enumerate(reference.domains()):
        ref, prox = reference.domain_scores[:, j], proxy.domain_scores[:, j]
        names = [f"the {table} table's domain {domain!r}" for table in ("reference", "proxy")]
        per_domain[domain] = spearman_rho(ref, prox, names)
        if n >= 8:
            top_quartile[domain] = top_quartile_rho(ref, prox, names)
    recoveries = capability_recovery(proxy.scores.mean(axis=1), reference.scores.mean(axis=1))
    return {
        "per_domain_rho": per_domain,
        "macro_avg_rho": float(np.mean(list(per_domain.values()))),
        "top_quartile_rho": top_quartile,
        "top_quartile_macro": (
            float(np.mean(list(top_quartile.values()))) if top_quartile else None
        ),
        "mean_capability_recovery": float(np.mean(recoveries)),
        "n_models": n,
    }
