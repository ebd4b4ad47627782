"""Optimization goals for the autotuner.

A goal is an objective (minimize latency, minimize energy, or their
product) plus an optional accuracy floor, mirroring mARGOt's
goal/constraint model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.utils.validation import check_positive


class GoalKind(enum.Enum):
    """What the application currently optimizes for."""

    PERFORMANCE = "performance"  # minimize latency
    ENERGY = "energy"  # minimize energy per invocation
    BALANCED = "balanced"  # minimize latency * energy product


@dataclass(frozen=True)
class Goal:
    """An objective with an optional hard constraint.

    ``min_accuracy`` is mARGOt's approximate-computing constraint: the
    manager may pick degraded variants (fewer samples, smaller
    models) as long as the quality floor holds.
    """

    kind: GoalKind = GoalKind.PERFORMANCE
    min_accuracy: Optional[float] = None

    def __post_init__(self):
        if self.min_accuracy is not None:
            check_positive("min_accuracy", self.min_accuracy)

    def satisfied(self, accuracy: float) -> bool:
        """Check the hard constraint."""
        return self.min_accuracy is None or accuracy >= self.min_accuracy

    def objective(self, latency_s: float, energy_j: float) -> float:
        """Scalar score to minimize under this goal."""
        if self.kind is GoalKind.PERFORMANCE:
            return latency_s
        if self.kind is GoalKind.ENERGY:
            return energy_j
        return latency_s * energy_j
