"""The application manager: mARGOt's decision maker.

Selects an operating point per invocation from

1. the current goal (performance / energy, with constraints),
2. system state (FPGA availability, CPU contention) from the system
   monitor,
3. input data features,
4. runtime feedback folded into the operating points' corrections.

The selection generalizes "affinity between the code variants and the
available system configurations" (paper §IV): variants whose target
device is unavailable are filtered; contention inflates the
expectations of variants sharing the contended resource.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import RuntimeSystemError
from repro.obs import current_metrics, current_tracer
from repro.runtime.autotuner.data_features import (
    NOMINAL,
    DataFeatures,
)
from repro.runtime.autotuner.goals import Goal, GoalKind
from repro.runtime.autotuner.knowledge import (
    KnowledgeBase,
    OperatingPoint,
)

#: Tracer category for autotuner adaptation decisions.
TUNER_CATEGORY = "autotuner.decision"


@dataclass
class SystemState:
    """What the hardware monitors report right now."""

    fpga_available: bool = True
    fpga_contention: float = 0.0  # queued work on the device, 0..1
    cpu_load: float = 0.0  # background load on host cores, 0..1
    security_alert: bool = False

    def clamp(self) -> "SystemState":
        """Return a copy with values forced into range."""
        return SystemState(
            fpga_available=self.fpga_available,
            fpga_contention=min(1.0, max(0.0, self.fpga_contention)),
            cpu_load=min(1.0, max(0.0, self.cpu_load)),
            security_alert=self.security_alert,
        )


class ApplicationManager:
    """Per-application autotuner instance."""

    def __init__(
        self,
        knowledge: KnowledgeBase,
        goal: Goal = Goal(),
    ):
        self.knowledge = knowledge
        self.goal = goal
        self.selections: Dict[str, int] = {}  # kernel -> variant_id
        self.switches = 0

    # ------------------------------------------------------------------

    def _expected(
        self,
        point: OperatingPoint,
        state: SystemState,
        features: DataFeatures,
    ) -> tuple:
        is_hw = point.variant.is_hardware
        latency = point.expected_latency_s * features.latency_factor(
            is_hw)
        energy = point.expected_energy_j * features.energy_factor(is_hw)
        if is_hw:
            latency *= 1.0 + 3.0 * state.fpga_contention
        else:
            latency *= 1.0 + 2.0 * state.cpu_load
        return latency, energy

    def select(
        self,
        kernel: str,
        state: Optional[SystemState] = None,
        features: Optional[DataFeatures] = None,
    ) -> OperatingPoint:
        """Pick the operating point for the next invocation."""
        state = (state or SystemState()).clamp()
        features = features or NOMINAL
        points = self.knowledge.points_for(kernel)

        candidates: List[OperatingPoint] = []
        for point in points:
            if point.variant.is_hardware and not state.fpga_available:
                continue
            if state.security_alert and not point.variant.knobs.dift:
                # auto-protection: under attack, only tracked variants
                continue
            candidates.append(point)
        if not candidates:
            # fall back to the full list rather than dying
            candidates = list(points)

        def score(point: OperatingPoint) -> tuple:
            latency, energy = self._expected(point, state, features)
            feasible = self.goal.satisfied(
                latency, energy, point.accuracy
            )
            return (not feasible, self.goal.objective(latency, energy))

        best = min(candidates, key=score)
        previous = self.selections.get(kernel)
        switched = (
            previous is not None
            and previous != best.variant.variant_id
        )
        if switched:
            self.switches += 1
        self.selections[kernel] = best.variant.variant_id
        metrics = current_metrics()
        metrics.counter(
            "autotuner.selections", "operating-point selections",
        ).inc(kernel=kernel)
        if switched:
            metrics.counter(
                "autotuner.switches", "variant switches at run time",
            ).inc(kernel=kernel)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.instant(
                "switch" if switched else "select",
                category=TUNER_CATEGORY, kernel=kernel,
                variant=best.variant.knobs.describe(),
                previous=-1 if previous is None else previous,
                fpga_available=state.fpga_available,
                security_alert=state.security_alert,
            )
        return best

    # ------------------------------------------------------------------

    def report(
        self,
        kernel: str,
        point: OperatingPoint,
        latency_s: float,
        energy_j: float,
    ) -> None:
        """Feed a measurement back into the point's corrections."""
        if self.knowledge.find(kernel, point.variant.variant_id) is None:
            raise RuntimeSystemError(
                f"reporting for unknown point of kernel {kernel!r}"
            )
        point.observe(latency_s, energy_j)
