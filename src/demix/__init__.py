"""demix: data-mixture search via weighted model merging.

Component models trained per candidate dataset are linearly merged (the
convex combination of their parameters) at sampled mixture weights to stand
in for models actually trained on those mixtures; a boosted
tree regressor fitted to the proxies' benchmark rankings steers an iterative
search over the mixture simplex. A built-in desk-scale training lab provides
the ground truth for validating proxy fidelity.

Public names are imported from their submodules (``from demix.merge_engine
import merge``), so ``import demix`` loads nothing else, numpy included.
"""

__version__ = "0.1.0"
