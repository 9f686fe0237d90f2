"""Exception hierarchy shared across the package."""


class SieveVarError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(SieveVarError):
    """Matrix sequence entries disagree in shape or dimension."""


class NonFiniteError(DimensionMismatchError):
    """A computed array went non-finite, e.g. bootstrap draws of an explosive model."""


class UnstableProcessError(SieveVarError):
    """A process specification violates stability or invertibility."""


class SingularMatrixError(SieveVarError):
    """A moment or autocovariance matrix is singular or not positive-definite."""

    def __init__(self, message: str, condition_number: float | None = None):
        if condition_number is not None:
            message = f"{message} (condition number {condition_number:.3e})"
        super().__init__(message)
        self.condition_number = condition_number


class EigenvalueError(SieveVarError):
    """Eigenvalue solver failed to converge."""


class ConfigError(SieveVarError):
    """Malformed configuration input."""


class ExperimentError(SieveVarError):
    """A Monte Carlo experiment failed beyond the tolerated replication losses."""
