"""Shared utilities: deterministic RNG, unit helpers, table formatting."""

from repro.utils.rng import deterministic_rng, stable_hash
from repro.utils.tables import Table
from repro.utils.units import (
    GB,
    GHZ,
    KB,
    MB,
    MHZ,
)
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
)

__all__ = [
    "deterministic_rng",
    "stable_hash",
    "Table",
    "KB",
    "MB",
    "GB",
    "MHZ",
    "GHZ",
    "check_positive",
    "check_non_negative",
    "check_in_range",
]
