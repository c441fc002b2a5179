"""Exception types shared across the package."""


class TactilabError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(TactilabError):
    """A catalog or result file failed validation; message names the field."""


class DegenerateTraceError(TactilabError):
    """Requested trace would hold fewer than two samples."""


class ModalityError(TactilabError):
    """A trace is missing the sensor channels an operation requires."""


class DegenerateSequenceError(TactilabError):
    """A signal statistic was asked of a sequence that is too short."""


class ZeroVarianceError(TactilabError):
    """A statistic that divides by a variance met a constant sequence."""


class InsufficientDataError(TactilabError):
    """Not enough samples to fit (e.g. the thermal projector needs >= 11)."""


class ProjectorMismatchError(TactilabError):
    """Feature dimension does not match the fitted projector."""


class SegmentationError(TactilabError):
    """Two observations (or an observation and a kernel) disagree on the
    modality layout."""


class ParameterError(TactilabError):
    """A numeric parameter is outside its documented range."""


class NumericalError(TactilabError):
    """A matrix factorization failed even after jitter escalation, or a
    numeric routine met a singular or non-finite input during a trial."""


class ConvergenceError(TactilabError):
    """An iterative fit did not converge; carries the residual trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class MissingPriorError(TactilabError):
    """Prior knowledge holds no model for the requested action."""


class OptimizationError(TactilabError):
    """Every hyperparameter search restart failed."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class StateError(TactilabError):
    """An exploration-state invariant was violated."""


class ConfigError(TactilabError):
    """An experiment config failed validation; message names the field."""
