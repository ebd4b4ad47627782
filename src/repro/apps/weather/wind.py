"""Wind-farm power modeling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.apps.weather.ensemble import Ensemble
from repro.apps.weather.grid import WeatherField

#: Nameplate rating of one turbine (MW).
RATED_MW_PER_TURBINE = 3.0
#: Share of the turbines' output that reaches the grid (wake and
#: electrical losses).
HUB_LOSS_FACTOR = 0.88


def power_curve(wind_ms) -> np.ndarray:
    """Normalized turbine power curve (0..1), vectorized.

    Cubic region between cut-in (3 m/s) and rated speed (12 m/s), flat
    at rated output until cut-out (25 m/s), zero elsewhere.
    """
    cut_in, rated_ms, cut_out = 3.0, 12.0, 25.0
    wind = np.asarray(wind_ms, dtype=float)
    power = np.zeros_like(wind)
    ramp = (wind >= cut_in) & (wind < rated_ms)
    power[ramp] = (
        (wind[ramp] ** 3 - cut_in**3) / (rated_ms**3 - cut_in**3)
    )
    power[(wind >= rated_ms) & (wind < cut_out)] = 1.0
    return power


@dataclass
class WindFarm:
    """A wind farm: its turbine positions."""

    name: str
    turbine_positions_km: List[Tuple[float, float]]

    def __post_init__(self):
        if not self.turbine_positions_km:
            raise ValueError("farm needs at least one turbine")

    @property
    def capacity_mw(self) -> float:
        """Nameplate capacity."""
        return len(self.turbine_positions_km) * RATED_MW_PER_TURBINE

    def production_mw(self, wind: WeatherField) -> float:
        """Farm output for one wind field."""
        speeds = np.array([
            wind.value_at_km(y, x)
            for y, x in self.turbine_positions_km
        ])
        normalized = power_curve(speeds)
        return float(
            normalized.sum()
            * RATED_MW_PER_TURBINE
            * HUB_LOSS_FACTOR
        )

    def production_distribution_mw(self, ensemble: Ensemble
                                   ) -> np.ndarray:
        """Per-member production for one forecast hour."""
        return np.array([
            self.production_mw(member) for member in ensemble.members
        ])


def default_farm() -> WindFarm:
    """24 turbines clustered offshore-style inside the 300 km domain."""
    rng = np.random.default_rng(7)
    center_y = 300.0 * 0.6
    center_x = 300.0 * 0.4
    positions = [
        (
            float(center_y + rng.normal(0, 4.0)),
            float(center_x + rng.normal(0, 4.0)),
        )
        for _ in range(24)
    ]
    return WindFarm("synthetic-farm", positions)
