"""Typed errors raised across the package, each mapped to a CLI exit code."""


class DemixError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ValidationError(DemixError):
    """Invalid value, ratio, hyperparameter, or configuration."""

    exit_code = 2


class SchemaMismatchError(ValidationError):
    """Tensor names/shapes (or base identity) of two parameter sets disagree."""

    exit_code = 2


class NonFiniteError(ValidationError):
    """A NaN or Inf appeared where only finite values are allowed."""

    exit_code = 2


class ArchiveError(DemixError):
    """A tensor archive could not be read or written."""

    exit_code = 3


class TrainingError(DemixError):
    """Toy-lab training diverged or was misconfigured; carries the index of
    the diverged model among those trained together when there is one."""

    exit_code = 4

    def __init__(self, message, model=None):
        super().__init__(message)
        self.model = model


class MetricError(DemixError):
    """A metric is undefined for the given input (e.g. degenerate ranking)."""

    exit_code = 5


class SearchError(DemixError):
    """Mixture search failed; carries the offending ratio when one exists."""

    exit_code = 6

    def __init__(self, message, ratio=None):
        super().__init__(message)
        self.ratio = ratio


class PipelineError(DemixError):
    """A pipeline stage failed or the manifest is unusable."""

    exit_code = 7
