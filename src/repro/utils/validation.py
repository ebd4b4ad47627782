"""Small argument-validation helpers used across the SDK.

These raise ``ValueError`` (not SDK errors) because they guard
programming mistakes at API boundaries, mirroring how numpy and
networkx validate their inputs.
"""

from __future__ import annotations


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0`` and return it."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0`` and return it."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_in_range(
    name: str, value: float, low: float, high: float
) -> float:
    """Require ``low <= value <= high`` and return it."""
    if not low <= value <= high:
        raise ValueError(
            f"{name} must be in [{low}, {high}], got {value!r}"
        )
    return value
