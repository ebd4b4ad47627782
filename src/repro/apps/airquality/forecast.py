"""Forecast-mode air-quality impact assessment.

"In forecast mode, it can be used as a decision tool for an industrial
site to adapt its activity" (§VI-B). For the next 24 hours, the
forecaster runs the plume model under every weather-ensemble member,
computes the probability of exceeding the regulatory threshold
anywhere in a protected zone, and recommends an action per hour:
operate normally, reduce activity, or activate abatement.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.apps.airquality.emissions import IndustrialSite
from repro.apps.airquality.plume import (
    concentration_grid,
    stability_from_weather,
)
from repro.utils.rng import deterministic_rng
from repro.utils.validation import check_positive


#: Regulatory concentration threshold (ug/m^3).
THRESHOLD_UG_M3 = 350.0
#: Exceedance probability from which the site reduces / abates.
REDUCE_PROBABILITY = 0.25
ABATE_PROBABILITY = 0.6
#: Emission factor kept while reducing / abating.
REDUCE_FACTOR = 0.6
ABATE_FACTOR = 0.25
#: Side of the square plume grid, and the fence-line radius inside
#: which no receptor is protected (m).
EXTENT_M = 10_000.0
EXCLUSION_RADIUS_M = 800.0


class ForecastDecision(enum.Enum):
    """Recommended site action for one hour."""

    NORMAL = "normal"
    REDUCE = "reduce"
    ABATE = "abate"


@dataclass
class HourlyAssessment:
    """Forecast output for one hour."""

    hour: int
    exceedance_probability: float
    peak_concentration: float
    decision: ForecastDecision


@dataclass(frozen=True)
class WeatherMember:
    """One ensemble member's surface weather for one hour."""

    wind_ms: float
    wind_dir_rad: float
    solar: float


def synth_weather_members(
    hour: int, members: int = 8, seed: str = "aq-weather"
) -> List[WeatherMember]:
    """Synthetic hourly weather ensemble for the dispersion model."""
    check_positive("members", members)
    rng = deterministic_rng("aq-weather", seed, hour)
    solar = max(0.0, math.sin(math.pi * (hour - 6) / 12.0))
    base_wind = 3.0 + 2.0 * math.sin(2 * math.pi * (hour - 14) / 24.0)
    base_dir = math.pi / 3 + 0.4 * math.sin(2 * math.pi * hour / 24.0)
    result = []
    for _ in range(members):
        result.append(WeatherMember(
            wind_ms=float(max(0.5, base_wind + rng.normal(0, 0.8))),
            wind_dir_rad=float(base_dir + rng.normal(0, 0.25)),
            solar=float(np.clip(solar + rng.normal(0, 0.1), 0, 1)),
        ))
    return result


class AirQualityForecast:
    """24-hour probabilistic impact forecast for one site."""

    def __init__(self, site: IndustrialSite, grid_cells: int = 60):
        self.site = site
        self.grid_cells = grid_cells

    # ------------------------------------------------------------------

    def assess_hour(
        self,
        hour: int,
        members: Sequence[WeatherMember],
        throttle: float = 1.0,
    ) -> HourlyAssessment:
        """Run the plume under every member; aggregate to a decision."""
        sources = self.site.sources_at_hour(hour, throttle)
        exceed = 0
        peak = 0.0
        for member in members:
            stability = stability_from_weather(
                member.wind_ms, member.solar
            )
            grid_x, grid_y, field = concentration_grid(
                sources,
                wind_ms=member.wind_ms,
                wind_dir_rad=member.wind_dir_rad,
                stability=stability,
                extent_m=EXTENT_M,
                cells=self.grid_cells,
            )
            # Regulatory receptors start beyond the site fence line;
            # the near-field singularity of the analytic plume is not
            # a protected location.
            distance = np.hypot(grid_x, grid_y)
            protected = field[distance >= EXCLUSION_RADIUS_M]
            member_peak = float(protected.max()) if protected.size \
                else 0.0
            peak = max(peak, member_peak)
            if member_peak > THRESHOLD_UG_M3:
                exceed += 1
        probability = exceed / len(members)
        if probability >= ABATE_PROBABILITY:
            decision = ForecastDecision.ABATE
        elif probability >= REDUCE_PROBABILITY:
            decision = ForecastDecision.REDUCE
        else:
            decision = ForecastDecision.NORMAL
        return HourlyAssessment(
            hour=hour,
            exceedance_probability=probability,
            peak_concentration=peak,
            decision=decision,
        )

    def forecast_day(
        self,
        members_per_hour: int = 8,
        seed: str = "aq",
    ) -> List[HourlyAssessment]:
        """Assess all 24 hours."""
        return [
            self.assess_hour(
                hour,
                synth_weather_members(hour, members_per_hour, seed),
            )
            for hour in range(24)
        ]

    # ------------------------------------------------------------------

    def apply_decisions(
        self,
        assessments: Sequence[HourlyAssessment],
    ) -> Tuple[float, float]:
        """Simulate following the recommendations.

        Returns (exceedance hours avoided fraction proxy, lost
        production fraction): re-assess each flagged hour with the
        throttled emissions and count remaining exceedances.
        """
        avoided = 0
        flagged = 0
        lost = 0.0
        for assessment in assessments:
            if assessment.decision is ForecastDecision.NORMAL:
                continue
            flagged += 1
            throttle = (
                REDUCE_FACTOR
                if assessment.decision is ForecastDecision.REDUCE
                else ABATE_FACTOR
            )
            lost += 1.0 - throttle
            members = synth_weather_members(assessment.hour)
            mitigated = self.assess_hour(
                assessment.hour, members, throttle=throttle
            )
            if mitigated.exceedance_probability < \
                    assessment.exceedance_probability:
                avoided += 1
        avoided_fraction = avoided / flagged if flagged else 1.0
        lost_fraction = lost / 24.0
        return avoided_fraction, lost_fraction
