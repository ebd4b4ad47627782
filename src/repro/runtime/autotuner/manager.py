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

import math
from dataclasses import dataclass
from itertools import compress, count
from operator import attrgetter, ne
from typing import Dict, Optional

from repro.errors import RuntimeSystemError
from repro.obs import current_metrics, current_tracer
from repro.runtime.autotuner.data_features import (
    NOMINAL,
    DataFeatures,
)
from repro.runtime.autotuner.goals import Goal
from repro.runtime.autotuner.knowledge import (
    KnowledgeBase,
    OperatingPoint,
)

#: Tracer category for autotuner adaptation decisions.
TUNER_CATEGORY = "autotuner.decision"

#: A point's runtime feedback, read for a whole candidate list at once.
_corrections = attrgetter("latency_correction", "energy_correction")


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
        # kernel -> its last select's (points, key, candidates, their
        # corrections and scores as last read, index of the winner)
        self._memos: Dict[str, tuple] = {}

    # ------------------------------------------------------------------

    def select(
        self,
        kernel: str,
        state: Optional[SystemState] = None,
        features: Optional[DataFeatures] = None,
    ) -> OperatingPoint:
        """Pick the operating point for the next invocation.

        Everything that depends only on the call (the filter flags, the
        data-feature factors, the contention or load inflation, the
        goal) is computed once per target class, and the first point
        with the least ``(infeasible, objective)`` wins. A call that
        matches the kernel's last one in all of these and in its points
        re-scores only the candidates whose corrections moved since;
        the winner is re-derived from every stored score only when it
        got worse or several points moved.
        """
        state = (state or SystemState()).clamp()
        features = features or NOMINAL
        points = self.knowledge.points_for(kernel)
        hardware = (features.latency_factor(True),
                    1.0 + 3.0 * state.fpga_contention,
                    features.energy_factor(True))
        software = (features.latency_factor(False),
                    1.0 + 2.0 * state.cpu_load,
                    features.energy_factor(False))
        goal = self.goal
        key = (state.fpga_available, state.security_alert, hardware,
               software, goal, len(points))
        memo = self._memos.get(kernel)
        if memo is None or memo[0] is not points or memo[1] != key:
            # auto-protection: under attack, only tracked variants; fall
            # back to the full list rather than dying
            candidates = [
                point for point in points
                if (state.fpga_available or not point.is_hardware)
                and (point.dift or not state.security_alert)
            ] or points
            unread = [None] * len(candidates)
            memo = (points, key, candidates, unread, list(unread), None)
        _, _, candidates, last, scores, winner = memo
        corrections = list(map(_corrections, candidates))
        moved = list(compress(count(), map(ne, corrections, last)))
        for index in moved:
            point = candidates[index]
            latency_factor, inflation, energy_factor = (
                hardware if point.is_hardware else software)
            latency_correction, energy_correction = corrections[index]
            latency = (point.predicted_latency_s * latency_correction
                       * latency_factor * inflation)
            energy = (point.predicted_energy_j * energy_correction
                      * energy_factor)
            before, scores[index] = scores[index], (
                not goal.satisfied(point.accuracy),
                goal.objective(latency, energy))
        # one moved point that is not a winner gone worse: ``(score,
        # index)`` orders it against the winner as the scan would, since
        # scores are finite (``report`` refuses other measurements)
        if len(moved) == 1 and winner is not None and (
                moved[0] != winner or scores[winner] <= before):
            winner = min((scores[winner], winner),
                         (scores[moved[0]], moved[0]))[1]
        elif moved:
            winner = min(range(len(scores)), key=scores.__getitem__)
        self._memos[kernel] = (points, key, candidates, corrections, scores,
                               winner)
        best = candidates[winner]
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
                variant=best.label,
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
        # identity, not id: knowledge bases loaded from one package
        # share variant ids
        if self.knowledge.find(kernel, point.variant.variant_id) is not point:
            raise RuntimeSystemError(
                f"reporting for unknown point of kernel {kernel!r}"
            )
        for value in (latency_s, energy_j):
            if not 0.0 <= value < math.inf:
                raise RuntimeSystemError(
                    f"measurement for kernel {kernel!r} must be finite "
                    f"and non-negative, got {value!r}"
                )
        point.observe(latency_s, energy_j)
