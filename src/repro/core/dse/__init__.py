"""Design-space exploration (paper §III-B middle-end).

Enumerates knob combinations, predicts their cost with high-level
architecture models (cf. [23-26]) and returns the Pareto-optimal
variant set exposed to the runtime. Evaluation is memoized through
content-addressed caches (:mod:`repro.core.dse.cache`) and can run in
deterministic parallel batches (``Explorer(workers=N)``).
"""

from repro.core.dse.space import DesignSpace
from repro.core.dse.cache import (
    CostCache,
    clear_caches,
    configure,
    cost_cache,
    default_cache_dir,
    prepared_cache,
)
from repro.core.dse.cost_model import ArchitectureModel, evaluate_variant
from repro.core.dse.pareto import ParetoFront, pareto_front
from repro.core.dse.explorer import Explorer, ExplorationResult

__all__ = [
    "DesignSpace",
    "ArchitectureModel",
    "evaluate_variant",
    "pareto_front",
    "ParetoFront",
    "Explorer",
    "ExplorationResult",
    "CostCache",
    "configure",
    "cost_cache",
    "prepared_cache",
    "clear_caches",
    "default_cache_dir",
]
