"""Argument-validation helpers.

Every public entry point of the library validates its arguments through the
small functions in this module so that error messages are consistent and the
validation logic is unit-testable on its own.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SpecError

__all__ = [
    "check_positive_int",
    "check_optional_positive_int",
    "check_optional_open_fraction",
    "check_non_negative_int",
    "check_fraction",
    "check_open_unit",
    "check_probability",
    "check_in_range",
    "check_type",
]


def check_positive_int(value: Any, name: str) -> int:
    """Validate that ``value`` is an integer ``>= 1`` and return it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def check_optional_positive_int(value: Any, name: str) -> None:
    """Raise :class:`SpecError` unless ``value`` is ``None`` or an int >= 1."""
    if value is not None and (
        isinstance(value, bool) or not isinstance(value, int) or value < 1
    ):
        raise SpecError(f"{name} must be a positive integer or None, got {value!r}")


def check_optional_open_fraction(value: Any, name: str) -> None:
    """Raise :class:`SpecError` unless ``value`` is ``None`` or a real in ``(0, 1)``."""
    if value is not None and (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not 0.0 < float(value) < 1.0
    ):
        raise SpecError(f"{name} must lie strictly between 0 and 1, got {value!r}")


def check_non_negative_int(value: Any, name: str) -> int:
    """Validate that ``value`` is an integer ``>= 0`` and return it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_fraction(value: Any, name: str) -> float:
    """Validate that ``value`` lies in the closed interval ``[0, 1]``."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_open_unit(value: Any, name: str) -> float:
    """Validate that ``value`` lies in the half-open interval ``(0, 1]``.

    This is the range the paper requires of ``epsilon`` (Theorem 1.1).
    """
    value = float(value)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")
    return value


def check_probability(value: Any, name: str) -> float:
    """Validate a probability in ``[0, 1]`` (alias with a clearer name)."""
    return check_fraction(value, name)


def check_in_range(value: Any, lo: float, hi: float, name: str) -> float:
    """Validate ``lo <= value <= hi``."""
    value = float(value)
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value}")
    return value


def check_type(value: Any, expected: type | tuple[type, ...], name: str) -> Any:
    """Validate ``isinstance(value, expected)`` and return the value."""
    if not isinstance(value, expected):
        if isinstance(expected, tuple):
            names = ", ".join(t.__name__ for t in expected)
        else:
            names = expected.__name__
        raise TypeError(f"{name} must be of type {names}, got {type(value).__name__}")
    return value
