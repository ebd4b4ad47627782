"""mARGOt-style dynamic autotuning (paper §IV, [11]).

The decision maker selects, per kernel invocation, the code variant
matching the current goal (performance or energy), the observed system
state (device availability, contention) and the input data features —
the "intelligent policy to select the code variant or hardware
configuration" of Fig. 2.
"""

from repro.runtime.autotuner.goals import Goal, GoalKind
from repro.runtime.autotuner.knowledge import (
    KnowledgeBase,
    OperatingPoint,
)
from repro.runtime.autotuner.data_features import DataFeatures
from repro.runtime.autotuner.manager import ApplicationManager

__all__ = [
    "Goal",
    "GoalKind",
    "OperatingPoint",
    "KnowledgeBase",
    "DataFeatures",
    "ApplicationManager",
]
