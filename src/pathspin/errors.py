"""Exception types shared across the package."""

from __future__ import annotations


class PathSpinError(Exception):
    """Base class for every error raised by this package."""


class InvalidStateError(PathSpinError):
    """A vector that should be a normalized state is not."""


class DimensionError(PathSpinError):
    """Operands have incompatible shapes."""


class InvalidMatrixError(PathSpinError):
    """A matrix violates a structural requirement (unitarity, symmetry, ...)."""


class InvalidMeasurementError(PathSpinError):
    """A projector family is not a valid projective measurement."""


class InvalidDistributionError(PathSpinError):
    """Sampling weights are negative or do not sum to one."""


class ConfigError(PathSpinError, ValueError):
    """A session or replay was configured with unusable parameters (a bad value)."""


class DecodingError(PathSpinError):
    """A kept round produced an outcome that matches no signal state."""


class ParseError(PathSpinError):
    """A transcript file is malformed.  Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InsufficientDataError(PathSpinError):
    """Too few samples to produce the requested estimate or verdict."""

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class DomainError(PathSpinError):
    """A parameter lies outside the domain of a closed-form expression."""


class NumericalError(PathSpinError):
    """A numerical routine could not reach its accuracy target."""
