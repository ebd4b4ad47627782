"""Industrial emission sources."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class EmissionSource:
    """One stack: position (m), release height, emission rate."""

    name: str
    x_m: float
    y_m: float
    stack_height_m: float
    rate_g_per_s: float
    pollutant: str = "SO2"

    def __post_init__(self):
        check_positive("stack_height_m", self.stack_height_m)
        check_non_negative("rate_g_per_s", self.rate_g_per_s)

    def scaled(self, factor: float) -> "EmissionSource":
        """Source with the emission rate scaled (production level)."""
        check_non_negative("factor", factor)
        return EmissionSource(
            name=self.name,
            x_m=self.x_m,
            y_m=self.y_m,
            stack_height_m=self.stack_height_m,
            rate_g_per_s=self.rate_g_per_s * factor,
            pollutant=self.pollutant,
        )


@dataclass
class IndustrialSite:
    """A site with several stacks and an hourly activity profile."""

    name: str
    sources: List[EmissionSource]
    activity_profile: np.ndarray = field(
        default_factory=lambda: np.ones(24)
    )

    def __post_init__(self):
        if not self.sources:
            raise ValueError("site needs at least one source")
        profile = np.asarray(self.activity_profile, dtype=float)
        if profile.shape != (24,):
            raise ValueError("activity profile must have 24 entries")
        if (profile < 0).any():
            raise ValueError("activity must be non-negative")
        self.activity_profile = profile

    def sources_at_hour(self, hour: int,
                        throttle: float = 1.0) -> List[EmissionSource]:
        """Sources scaled by the hour's activity and a throttle."""
        factor = float(self.activity_profile[hour % 24]) * throttle
        return [source.scaled(factor) for source in self.sources]

    def total_rate_g_per_s(self, hour: int) -> float:
        """Aggregate emission rate at an hour."""
        return sum(
            source.rate_g_per_s
            for source in self.sources_at_hour(hour)
        )


def default_site() -> IndustrialSite:
    """A representative three-stack site with a day-shift profile."""
    profile = np.array(
        [0.4] * 6 + [1.0] * 12 + [0.7] * 4 + [0.4] * 2
    )
    return IndustrialSite(
        name="steelworks",
        sources=[
            EmissionSource("stack-a", 0.0, 0.0, 45.0, 15.0),
            EmissionSource("stack-b", 150.0, 40.0, 30.0, 8.0),
            EmissionSource("stack-c", -80.0, 120.0, 60.0, 25.0),
        ],
        activity_profile=profile,
    )
