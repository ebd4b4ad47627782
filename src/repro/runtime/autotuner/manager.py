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
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional

from repro.errors import RuntimeSystemError
from repro.obs import current_metrics, current_tracer
from repro.runtime.autotuner.data_features import (
    NOMINAL,
    DataFeatures,
)
from repro.runtime.autotuner.goals import Goal
from repro.runtime.autotuner.knowledge import (
    FeedbackLog,
    KnowledgeBase,
    OperatingPoint,
)

#: Tracer category for autotuner adaptation decisions.
TUNER_CATEGORY = "autotuner.decision"


@dataclass(frozen=True)
class SystemState:
    """What the hardware monitors report right now.

    A frozen value: whoever takes one in clamps it once
    (:meth:`clamp`) and may hand the same object on, so a caller that
    passes one state for many calls lets the decision maker recognise
    it by identity.
    """

    fpga_available: bool = True
    fpga_contention: float = 0.0  # queued work on the device, 0..1
    cpu_load: float = 0.0  # background load on host cores, 0..1
    security_alert: bool = False

    def clamp(self) -> "SystemState":
        """This state with its levels forced into [0, 1]: itself when
        they already are, else a copy (a NaN level becomes 0.0)."""
        if 0.0 <= self.fpga_contention <= 1.0 and 0.0 <= self.cpu_load <= 1.0:
            return self
        return SystemState(
            fpga_available=self.fpga_available,
            fpga_contention=min(1.0, max(0.0, self.fpga_contention)),
            cpu_load=min(1.0, max(0.0, self.cpu_load)),
            security_alert=self.security_alert,
        )


#: The state a call without one runs in: device up, nothing contended.
IDLE = SystemState()


class _Memo:
    """One kernel's last select: the objects it was called with, their
    key, the candidates' scores, a heap of ``(score, index)`` whose
    least entry still holding its candidate's current score object is
    the winner, and how far it read the feedback log."""

    __slots__ = ("points", "size", "state", "features", "goal", "key",
                 "candidates", "index_of", "scores", "heap", "feedback",
                 "cursor")

    def __init__(self, points, key, candidates, feedback):
        self.points, self.size, self.key = points, len(points), key
        self.candidates = candidates
        # by identity: two points of equal fields are still two points
        self.index_of = {id(point): index
                         for index, point in enumerate(candidates)}
        self.scores: List[Optional[tuple]] = [None] * len(candidates)
        self.heap: List[tuple] = []
        self.feedback: FeedbackLog = feedback
        self.cursor: Optional[int] = None  # nothing read yet


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
        self._memos: Dict[str, _Memo] = {}
        # the registry the counters below were resolved in
        self._registry = None
        self._selections_counter = None
        self._switches_counter = None

    # ------------------------------------------------------------------

    def _recall(self, kernel: str, memo: Optional[_Memo], points,
                state: SystemState, features: DataFeatures,
                goal: Goal) -> _Memo:
        """The kernel's memo for objects it was not last called with:
        ``memo`` when they give its key, else a fresh one."""
        hardware = (features.latency_factor(True),
                    1.0 + 3.0 * state.fpga_contention,
                    features.energy_factor(True))
        software = (features.latency_factor(False),
                    1.0 + 2.0 * state.cpu_load,
                    features.energy_factor(False))
        key = (state.fpga_available, state.security_alert, hardware,
               software, goal, len(points))
        if memo is None or memo.points is not points or memo.key != key:
            # auto-protection: under attack, only tracked variants; fall
            # back to the full list rather than dying
            candidates = [
                point for point in points
                if (state.fpga_available or not point.is_hardware)
                and (point.dift or not state.security_alert)
            ] or points
            memo = self._memos[kernel] = _Memo(
                points, key, candidates, self.knowledge.feedback(kernel))
        memo.state, memo.features, memo.goal = state, features, goal
        return memo

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
        with the least ``(infeasible, objective)`` wins. The kernel's
        memo keeps each candidate's score, a heap of them and a cursor
        into the knowledge base's feedback log: a call that matches the
        last one in all of the above and in the points re-scores only
        the candidates logged since, so it costs O(points moved), not
        O(points). It scores every candidate when the call differs or
        the log dropped entries the memo had not read. ``state`` is
        clamped here; an in-range state passes through as itself.
        """
        state = IDLE if state is None else state.clamp()
        features = features or NOMINAL
        points = self.knowledge.points_for(kernel)
        goal = self.goal
        memo = self._memos.get(kernel)
        if (memo is None or memo.points is not points
                or memo.size != len(points) or memo.state is not state
                or memo.features is not features or memo.goal is not goal):
            memo = self._recall(kernel, memo, points, state, features,
                                goal)
        feedback = memo.feedback
        if memo.cursor != feedback.end:
            candidates, scores, heap = memo.candidates, memo.scores, memo.heap
            hardware, software = memo.key[2:4]
            moved = feedback.since(memo.cursor)
            memo.cursor = feedback.end
            if moved is None:
                indices = range(len(candidates))
            else:
                indices = [index for index in map(
                    memo.index_of.get, map(id, moved)) if index is not None]
            for index in indices:
                point = candidates[index]
                latency_factor, inflation, energy_factor = (
                    hardware if point.is_hardware else software)
                latency = (point.predicted_latency_s
                           * point.latency_correction
                           * latency_factor * inflation)
                energy = (point.predicted_energy_j * point.energy_correction
                          * energy_factor)
                scores[index] = score = (not goal.satisfied(point.accuracy),
                                         goal.objective(latency, energy))
                heappush(heap, (score, index))
            if len(heap) > 2 * len(scores):
                heap[:] = zip(scores, range(len(scores)))
                heapify(heap)
            # a stale entry holds an older score object of its candidate;
            # the least live ``(score, index)`` is the first least score,
            # as a full scan finds it, since scores are finite (``report``
            # refuses other measurements)
            while heap[0][0] is not scores[heap[0][1]]:
                heappop(heap)
        best = memo.candidates[memo.heap[0][1]]
        previous = self.selections.get(kernel)
        switched = (
            previous is not None
            and previous != best.variant.variant_id
        )
        if switched:
            self.switches += 1
        self.selections[kernel] = best.variant.variant_id
        metrics = current_metrics()
        if metrics is not self._registry:
            self._registry, self._switches_counter = metrics, None
            self._selections_counter = metrics.counter(
                "autotuner.selections", "operating-point selections")
        self._selections_counter.inc(kernel=kernel)
        if switched:
            if self._switches_counter is None:
                self._switches_counter = metrics.counter(
                    "autotuner.switches", "variant switches at run time")
            self._switches_counter.inc(kernel=kernel)
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
