"""Small argument-validation helpers used across the library.

These keep the public constructors' precondition checks terse and the error
messages uniform, which matters for a library meant to be embedded in larger
simulation pipelines where a bad parameter should fail loudly and early.
"""

from __future__ import annotations

__all__ = ["require", "check_positive", "check_non_negative", "check_probability"]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def check_positive(name: str, value: float) -> float:
    """Validate that ``value`` is strictly positive and return it."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Validate that ``value`` is >= 0 and return it."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Validate that ``value`` lies in [0, 1] and return it."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value
