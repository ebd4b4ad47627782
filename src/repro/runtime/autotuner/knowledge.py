"""Application knowledge: operating points per kernel.

mARGOt's *application knowledge* is the list of operating points —
(variant, predicted metrics) pairs produced at design time. At run
time, observed measurements refine the predictions through per-variant
correction factors (observed / predicted exponential moving average),
so a variant whose prediction was optimistic loses its edge after a
few invocations. Each kernel's :class:`FeedbackLog` records which
points moved, so a decision maker re-reads only those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.variants import Variant
from repro.errors import RuntimeSystemError

#: weight of one measurement in a point's correction factors (an
#: exponential moving average)
SMOOTHING = 0.3


class FeedbackLog:
    """The points of one kernel in the order their corrections moved.

    ``OperatingPoint.observe`` appends the point; a reader keeps the
    ``end`` it last read up to and asks for what came ``since``. The log
    holds at most one entry per point of its kernel: the append that
    would pass that bound first empties it, and a reader whose cursor
    falls before the oldest entry kept is told to re-read every point.
    """

    __slots__ = ("_points", "_entries", "end")

    def __init__(self, points: List["OperatingPoint"]):
        self._points = points
        self._entries: List[OperatingPoint] = []
        self.end = 0  # appends ever made; the next entry's cursor

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, point: "OperatingPoint") -> None:
        """Record that ``point``'s corrections moved."""
        if len(self._entries) >= len(self._points):
            self._entries.clear()
        self._entries.append(point)
        self.end += 1

    def since(self, cursor: Optional[int]
              ) -> Optional[List["OperatingPoint"]]:
        """Points appended from ``cursor`` on, oldest first and possibly
        repeated; ``None`` when some were dropped or the cursor is
        ``None`` (never read), i.e. every point may have moved."""
        start = self.end - len(self._entries)
        if cursor is None or cursor < start:
            return None
        return self._entries[cursor - start:]


@dataclass
class OperatingPoint:
    """One selectable configuration of a kernel.

    ``is_hardware``, ``dift``, ``accuracy`` (output quality, 1.0 =
    exact) and ``label`` (the knobs' description) are copied from the
    variant once: a packaged variant's knobs are frozen and its cost is
    not mutated after packaging, and the decision maker and the
    executor read them on every invocation. The corrections are
    read-only: only :meth:`observe` moves them, and it logs the move
    in ``feedback``, the kernel's log of the knowledge base that
    registered the point.
    """

    variant: Variant
    predicted_latency_s: float
    predicted_energy_j: float
    feedback: Optional[FeedbackLog] = field(default=None, repr=False)
    is_hardware: bool = field(init=False)
    dift: bool = field(init=False)
    accuracy: float = field(init=False)
    label: str = field(init=False)
    _latency_correction: float = field(init=False, default=1.0)
    _energy_correction: float = field(init=False, default=1.0)

    def __post_init__(self):
        self.is_hardware = self.variant.is_hardware
        self.dift = self.variant.knobs.dift
        self.accuracy = self.variant.cost.accuracy
        self.label = self.variant.knobs.describe()

    @property
    def latency_correction(self) -> float:
        """Observed / predicted latency, smoothed; 1.0 until observed."""
        return self._latency_correction

    @property
    def energy_correction(self) -> float:
        """Observed / predicted energy, smoothed; 1.0 until observed."""
        return self._energy_correction

    @property
    def expected_latency_s(self) -> float:
        """Prediction adjusted by runtime feedback."""
        return self.predicted_latency_s * self._latency_correction

    @property
    def expected_energy_j(self) -> float:
        """Prediction adjusted by runtime feedback."""
        return self.predicted_energy_j * self._energy_correction

    def observe(self, latency_s: float, energy_j: float) -> None:
        """Fold one measurement into the correction factors and append
        this point to its kernel's feedback log, which is how every
        decision maker over the knowledge base learns that it moved."""
        if self.predicted_latency_s > 0:
            ratio = latency_s / self.predicted_latency_s
            self._latency_correction = (
                (1 - SMOOTHING) * self._latency_correction
                + SMOOTHING * ratio
            )
        if self.predicted_energy_j > 0:
            ratio = energy_j / self.predicted_energy_j
            self._energy_correction = (
                (1 - SMOOTHING) * self._energy_correction
                + SMOOTHING * ratio
            )
        if self.feedback is not None:
            self.feedback.append(self)


class KnowledgeBase:
    """Operating points for every kernel of an application.

    Each kernel has its point list and its :class:`FeedbackLog`; the
    points a base registers append to that log when observed.
    """

    def __init__(self):
        self._points: Dict[str, List[OperatingPoint]] = {}
        self._feedback: Dict[str, FeedbackLog] = {}
        # (kernel, variant id) -> the first point registered for it
        self._by_id: Dict[Tuple[str, int], OperatingPoint] = {}

    def add_variant(self, variant: Variant) -> OperatingPoint:
        """Register a compile-time variant as an operating point."""
        points = self._points.setdefault(variant.kernel, [])
        feedback = self._feedback.get(variant.kernel)
        if feedback is None:
            feedback = self._feedback[variant.kernel] = FeedbackLog(points)
        point = OperatingPoint(
            variant=variant,
            predicted_latency_s=variant.cost.latency_s,
            predicted_energy_j=variant.cost.energy_j,
            feedback=feedback,
        )
        points.append(point)
        self._by_id.setdefault((variant.kernel, variant.variant_id), point)
        return point

    def load_package(self, package) -> None:
        """Ingest every variant of a VariantPackage."""
        for kernel in package.kernels():
            for variant in package.variants_for(kernel):
                self.add_variant(variant)

    def points_for(self, kernel: str) -> List[OperatingPoint]:
        """All operating points of one kernel."""
        points = self._points.get(kernel)
        if not points:
            raise RuntimeSystemError(
                f"no operating points for kernel {kernel!r}"
            )
        return points

    def feedback(self, kernel: str) -> FeedbackLog:
        """The log of ``kernel``'s points whose corrections moved."""
        self.points_for(kernel)
        return self._feedback[kernel]

    def kernels(self) -> List[str]:
        """Kernels with registered points."""
        return sorted(self._points)

    def find(self, kernel: str, variant_id: int) -> Optional[OperatingPoint]:
        """Locate the point wrapping a specific variant."""
        return self._by_id.get((kernel, variant_id))
