"""Data features: input characteristics driving variant selection.

The paper lists "data features [37]" among the selection inputs: the
best variant depends on the invocation's input (sparsity, value
range). Features scale the latency/energy predictions of the
operating points, whose design-time estimates assume the nominal
input the compiler saw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.utils.validation import check_in_range


@dataclass(frozen=True)
class DataFeatures:
    """Characteristics of one invocation's input data.

    A frozen value, so its scale factors are worked out once, when it
    is made, and every prediction scaled for it reads them.
    """

    sparsity: float = 0.0  # fraction of zero elements
    burstiness: float = 0.0  # 0 = steady stream, 1 = extremely bursty
    # (software, hardware) factors, indexed by ``is_hardware``
    _latency: Tuple[float, float] = field(init=False, repr=False,
                                          compare=False)
    _energy: Tuple[float, float] = field(init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        check_in_range("sparsity", self.sparsity, 0.0, 1.0)
        check_in_range("burstiness", self.burstiness, 0.0, 1.0)
        # Sparsity helps software (branchy early-exits) more than
        # fixed-function pipelines. Burstiness penalizes hardware less:
        # the accelerator absorbs bursts at line rate while software
        # queues.
        object.__setattr__(self, "_latency", (
            max((1.0 - 0.5 * self.sparsity)
                * (1.0 + 0.4 * self.burstiness), 1e-6),
            max((1.0 - 0.2 * self.sparsity)
                * (1.0 + 0.05 * self.burstiness), 1e-6),
        ))
        object.__setattr__(self, "_energy", (
            max(1.0 - 0.4 * self.sparsity, 1e-6),
            max(1.0 - 0.15 * self.sparsity, 1e-6),
        ))

    def latency_factor(self, is_hardware: bool) -> float:
        """Scale a variant's predicted latency for this input."""
        return self._latency[is_hardware]

    def energy_factor(self, is_hardware: bool) -> float:
        """Scale a variant's predicted energy for this input."""
        return self._energy[is_hardware]


NOMINAL = DataFeatures()
