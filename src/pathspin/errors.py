"""Exception types shared across the package, and the one reader of outside JSON values."""

from __future__ import annotations

import json
from enum import Enum


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
    """A key bit was asked of a setting that is not kept for the group."""


class ParseError(PathSpinError):
    """A transcript file or a JSON text is malformed.  Carries the offending line number."""

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


def read_json(text: str, line: int = 1) -> dict:
    """The JSON object ``text``, whose first line is line ``line`` of its file.

    Every JSON text from outside the package is parsed here.  Text that is
    not JSON, is nested too deeply for the parser, holds an integer literal
    beyond the interpreter's digit limit or is no object raises ParseError
    at its line.  ``NaN`` and ``Infinity`` parse, as floats.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})", line + exc.lineno - 1) from None
    except RecursionError:
        raise ParseError("invalid JSON (nested too deeply)", line) from None
    except ValueError:  # from int(), for a literal beyond the interpreter's digit limit
        raise ParseError("invalid JSON (integer literal too long)", line) from None
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}", line)
    return obj


def is_json_int(value: object) -> bool:
    """Whether ``value`` is a JSON integer: ``True`` and ``1.0`` equal 1, but are none."""
    return type(value) is int


def json_number(value: object, name: str) -> float:
    """``value`` as a float if it is a JSON number (a bool is none) in range, else a ConfigError."""
    if type(value) not in (int, float):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} is an integer too large for a float") from None


def json_choice(value: object, choices: type[Enum], name: str) -> Enum:
    """The member of ``choices`` whose value is ``value``, else a ConfigError naming ``name``."""
    try:
        return choices(value)
    except ValueError:
        *values, last = (repr(member.value) for member in choices)
        raise ConfigError(f"{name} must be {', '.join(values)} or {last}, got {value!r}") from None
