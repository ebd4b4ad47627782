"""Ensemble forecast generation (global-circulation surrogate).

Production systems run an ensemble of perturbed global forecasts at
15-25 km spacing (paper §VI-A). The surrogate degrades the synthetic
truth: block-average to the forecast resolution, then add member-
specific correlated errors that grow with lead time — reproducing the
two properties the use case depends on: coarse grids miss local wind
features, and spread grows with horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.apps.weather.grid import (
    WeatherField,
    _correlated_noise,
)
from repro.utils.rng import deterministic_rng
from repro.utils.validation import check_positive


@dataclass
class Ensemble:
    """One forecast hour: members on a common grid."""

    hour: int
    members: List[WeatherField]

    @property
    def size(self) -> int:
        """Number of members."""
        return len(self.members)

    @property
    def resolution_km(self) -> float:
        """Grid spacing of the members."""
        return self.members[0].resolution_km

    def spread(self) -> float:
        """Mean ensemble standard deviation (forecast uncertainty)."""
        stacked = np.stack([m.data for m in self.members])
        return float(stacked.std(axis=0).mean())


def generate_ensemble(
    truth: WeatherField,
    resolution_km: float,
    members: int = 10,
    lead_hours: int = 24,
    seed: str = "ens",
) -> Ensemble:
    """Degrade the truth into a coarse, perturbed ensemble.

    ``resolution_km`` must be an integer multiple of the truth's
    resolution. Error magnitude grows with lead time (~0.08 m/s per
    hour) on top of a representativeness error that grows with the
    coarsening factor.
    """
    check_positive("members", members)
    factor = int(round(resolution_km / truth.resolution_km))
    if factor < 1 or abs(
        factor * truth.resolution_km - resolution_km
    ) > 1e-9:
        raise ValueError(
            f"resolution {resolution_km} km is not a multiple of the "
            f"truth resolution {truth.resolution_km} km"
        )
    coarse = truth.block_average(factor) if factor > 1 else truth
    # Model error grows with both lead time and grid spacing: coarse
    # configurations resolve less physics, not just less detail.
    lead_error = (0.30 + 0.05 * lead_hours) * (
        1.0 + 0.05 * resolution_km
    )
    member_fields: List[WeatherField] = []
    for index in range(members):
        rng = deterministic_rng("ensemble", seed, index, lead_hours)
        error = _correlated_noise(
            coarse.data.shape,
            max(1.0, 60.0 / coarse.resolution_km),
            rng,
        ) * lead_error
        bias = rng.normal(0.0, 0.15)
        data = np.clip(coarse.data + error + bias, 0.0, 40.0)
        member_fields.append(WeatherField(
            name=coarse.name, data=data,
            resolution_km=coarse.resolution_km,
        ))
    return Ensemble(hour=lead_hours, members=member_fields)
