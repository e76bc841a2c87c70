"""demix: data-mixture search via weighted model merging.

Component models trained per candidate dataset are merged at sampled mixture
weights to stand in for models actually trained on those mixtures; a boosted
tree regressor fitted to the proxies' benchmark rankings steers an iterative
search over the mixture simplex. A built-in desk-scale training lab provides
the ground truth for validating proxy fidelity.
"""

__version__ = "0.1.0"

from .errors import (
    ArchiveError,
    DemixError,
    MetricError,
    NonFiniteError,
    PipelineError,
    SchemaMismatchError,
    SearchError,
    TrainingError,
    ValidationError,
)
from .eval_metrics import (
    ScoreTable,
    capability_recovery,
    consistency_report,
    spearman_rho,
    top_quartile_rho,
)
from .gbdt import BoostedTreesRegressor
from .merge_engine import (
    AdditivityReport,
    MergeSpec,
    MixtureRatio,
    check_additivity,
    merge,
    merge_linear,
)
from .mixture_search import (
    ProxyEvaluation,
    SamplePlan,
    run_search,
    sample_simplex,
)
from .tensor_store import (
    ParameterSet,
    WeightDelta,
    apply_delta,
    compute_delta,
    delta_magnitude,
    load_archive,
    save_archive,
)

__all__ = [
    "ArchiveError",
    "AdditivityReport",
    "BoostedTreesRegressor",
    "DemixError",
    "MergeSpec",
    "MetricError",
    "MixtureRatio",
    "NonFiniteError",
    "ParameterSet",
    "PipelineError",
    "ProxyEvaluation",
    "SamplePlan",
    "SchemaMismatchError",
    "ScoreTable",
    "SearchError",
    "TrainingError",
    "ValidationError",
    "WeightDelta",
    "apply_delta",
    "capability_recovery",
    "check_additivity",
    "compute_delta",
    "consistency_report",
    "delta_magnitude",
    "load_archive",
    "merge",
    "merge_linear",
    "run_search",
    "sample_simplex",
    "save_archive",
    "spearman_rho",
    "top_quartile_rho",
]
