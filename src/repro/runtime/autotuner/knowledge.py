"""Application knowledge: operating points per kernel.

mARGOt's *application knowledge* is the list of operating points —
(variant, predicted metrics) pairs produced at design time. At run
time, observed measurements refine the predictions through per-variant
correction factors (observed / predicted exponential moving average),
so a variant whose prediction was optimistic loses its edge after a
few invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.variants import Variant
from repro.errors import RuntimeSystemError
from repro.utils.validation import check_in_range, check_positive


@dataclass
class OperatingPoint:
    """One selectable configuration of a kernel.

    ``is_hardware``, ``dift``, ``accuracy`` (output quality, 1.0 =
    exact) and ``label`` (the knobs' description) are copied from the
    variant once: a packaged variant's knobs are frozen and its cost is
    not mutated after packaging, and the decision maker and the
    executor read them on every invocation.
    """

    variant: Variant
    predicted_latency_s: float
    predicted_energy_j: float
    latency_correction: float = 1.0
    energy_correction: float = 1.0
    is_hardware: bool = field(init=False)
    dift: bool = field(init=False)
    accuracy: float = field(init=False)
    label: str = field(init=False)

    def __post_init__(self):
        self.is_hardware = self.variant.is_hardware
        self.dift = self.variant.knobs.dift
        self.accuracy = self.variant.cost.accuracy
        self.label = self.variant.knobs.describe()

    @property
    def expected_latency_s(self) -> float:
        """Prediction adjusted by runtime feedback."""
        return self.predicted_latency_s * self.latency_correction

    @property
    def expected_energy_j(self) -> float:
        """Prediction adjusted by runtime feedback."""
        return self.predicted_energy_j * self.energy_correction

    def observe(self, latency_s: float, energy_j: float,
                smoothing: float = 0.3) -> None:
        """Fold one measurement into the correction factors."""
        check_in_range("smoothing", smoothing, 0.0, 1.0)
        if self.predicted_latency_s > 0:
            ratio = latency_s / self.predicted_latency_s
            self.latency_correction = (
                (1 - smoothing) * self.latency_correction
                + smoothing * ratio
            )
        if self.predicted_energy_j > 0:
            ratio = energy_j / self.predicted_energy_j
            self.energy_correction = (
                (1 - smoothing) * self.energy_correction
                + smoothing * ratio
            )


class KnowledgeBase:
    """Operating points for every kernel of an application."""

    def __init__(self):
        self._points: Dict[str, List[OperatingPoint]] = {}
        # (kernel, variant id) -> the first point registered for it
        self._by_id: Dict[Tuple[str, int], OperatingPoint] = {}

    def add_variant(self, variant: Variant) -> OperatingPoint:
        """Register a compile-time variant as an operating point."""
        point = OperatingPoint(
            variant=variant,
            predicted_latency_s=variant.cost.latency_s,
            predicted_energy_j=variant.cost.energy_j,
        )
        self._points.setdefault(variant.kernel, []).append(point)
        self._by_id.setdefault((variant.kernel, variant.variant_id), point)
        return point

    def load_package(self, package) -> None:
        """Ingest every variant of a VariantPackage."""
        for kernel in package.kernels():
            for variant in package.variants_for(kernel):
                self.add_variant(variant)

    def points_for(self, kernel: str) -> List[OperatingPoint]:
        """All operating points of one kernel."""
        if kernel not in self._points or not self._points[kernel]:
            raise RuntimeSystemError(
                f"no operating points for kernel {kernel!r}"
            )
        return self._points[kernel]

    def kernels(self) -> List[str]:
        """Kernels with registered points."""
        return sorted(self._points)

    def find(self, kernel: str, variant_id: int) -> Optional[OperatingPoint]:
        """Locate the point wrapping a specific variant."""
        return self._by_id.get((kernel, variant_id))
