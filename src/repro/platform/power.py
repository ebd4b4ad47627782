"""Energy accounting for simulated executions.

The paper's Section VI-D claims hinge on *energy efficiency* as much as
raw speed; the :class:`EnergyMeter` accumulates joules per device so
benchmarks can report both.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from repro.utils.validation import check_non_negative


class EnergyMeter:
    """Accumulates energy per named device and per category.

    Categories distinguish compute, data movement and static (idle)
    energy so ablation benches can attribute savings.
    """

    def __init__(self):
        self._by_device: Dict[str, float] = defaultdict(float)
        self._by_category: Dict[str, float] = defaultdict(float)

    def add(self, device: str, joules: float, category: str = "compute"
            ) -> None:
        """Record ``joules`` consumed by ``device``."""
        check_non_negative("joules", joules)
        self._by_device[device] += joules
        self._by_category[category] += joules

    def add_power(
        self,
        device: str,
        watts: float,
        seconds: float,
        category: str = "compute",
    ) -> None:
        """Record a power draw integrated over a duration."""
        check_non_negative("watts", watts)
        check_non_negative("seconds", seconds)
        self.add(device, watts * seconds, category)

    @property
    def total_joules(self) -> float:
        """Total energy across all devices."""
        return sum(self._by_device.values())

    def breakdown(self) -> Dict[str, float]:
        """Copy of the per-category totals."""
        return dict(self._by_category)

    def merge(self, other: "EnergyMeter") -> None:
        """Fold another meter's totals into this one."""
        for device, joules in other._by_device.items():
            self._by_device[device] += joules
        for category, joules in other._by_category.items():
            self._by_category[category] += joules
