"""Data features: input characteristics driving variant selection.

The paper lists "data features [37]" among the selection inputs: the
best variant depends on the invocation's input (sparsity, value
range). Features scale the latency/energy predictions of the
operating points, whose design-time estimates assume the nominal
input the compiler saw.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_in_range


@dataclass(frozen=True)
class DataFeatures:
    """Characteristics of one invocation's input data."""

    sparsity: float = 0.0  # fraction of zero elements
    burstiness: float = 0.0  # 0 = steady stream, 1 = extremely bursty

    def __post_init__(self):
        check_in_range("sparsity", self.sparsity, 0.0, 1.0)
        check_in_range("burstiness", self.burstiness, 0.0, 1.0)

    def latency_factor(self, is_hardware: bool) -> float:
        """Scale a variant's predicted latency for this input.

        Sparsity helps software (branchy early-exits) more than
        fixed-function pipelines. Burstiness penalizes hardware less:
        the accelerator absorbs bursts at line rate while software
        queues.
        """
        if is_hardware:
            factor = (1.0 - 0.2 * self.sparsity) * (
                1.0 + 0.05 * self.burstiness)
        else:
            factor = (1.0 - 0.5 * self.sparsity) * (
                1.0 + 0.4 * self.burstiness)
        return max(factor, 1e-6)

    def energy_factor(self, is_hardware: bool) -> float:
        """Scale a variant's predicted energy for this input."""
        if not is_hardware:
            factor = 1.0 - 0.4 * self.sparsity
        else:
            factor = 1.0 - 0.15 * self.sparsity
        return max(factor, 1e-6)


NOMINAL = DataFeatures()
