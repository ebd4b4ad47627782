"""Gaussian plume dispersion model.

The standard steady-state point-source model used by local-scale
regulatory tools (the physics inside a Plum'air-class service):
ground-level concentration downwind of an elevated source under
Pasquill-Gifford stability classes, with ground reflection.

C(x, y, 0) = Q / (2 pi u sy sz) * exp(-y^2 / 2 sy^2)
             * 2 exp(-H^2 / 2 sz^2)

with sigma curves sy(x), sz(x) from Briggs' rural fits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.apps.airquality.emissions import EmissionSource
from repro.utils.validation import check_positive


class StabilityClass(enum.Enum):
    """Pasquill-Gifford atmospheric stability classes."""

    A = "A"  # very unstable
    B = "B"
    C = "C"
    D = "D"  # neutral
    E = "E"
    F = "F"  # very stable


# Briggs (rural) sigma parameterizations: sigma = a*x / sqrt(1+b*x)
# for sigma_y, and specific forms for sigma_z.
_SIGMA_Y = {
    StabilityClass.A: (0.22, 0.0001),
    StabilityClass.B: (0.16, 0.0001),
    StabilityClass.C: (0.11, 0.0001),
    StabilityClass.D: (0.08, 0.0001),
    StabilityClass.E: (0.06, 0.0001),
    StabilityClass.F: (0.04, 0.0001),
}
_SIGMA_Z = {
    StabilityClass.A: (0.20, 0.0),
    StabilityClass.B: (0.12, 0.0),
    StabilityClass.C: (0.08, 0.0002),
    StabilityClass.D: (0.06, 0.0015),
    StabilityClass.E: (0.03, 0.0003),
    StabilityClass.F: (0.016, 0.0003),
}


def sigma_y(x_m: np.ndarray, stability: StabilityClass) -> np.ndarray:
    """Lateral dispersion coefficient (m)."""
    a, b = _SIGMA_Y[stability]
    x = np.maximum(x_m, 1.0)
    return a * x / np.sqrt(1.0 + b * x)


def sigma_z(x_m: np.ndarray, stability: StabilityClass) -> np.ndarray:
    """Vertical dispersion coefficient (m)."""
    a, b = _SIGMA_Z[stability]
    x = np.maximum(x_m, 1.0)
    if stability in (StabilityClass.A, StabilityClass.B):
        return a * x
    if stability in (StabilityClass.C,):
        return a * x / np.sqrt(1.0 + b * x)
    return a * x / (1.0 + b * x) ** 0.5


def stability_from_weather(wind_ms: float, solar: float
                           ) -> StabilityClass:
    """Crude Pasquill classification from wind speed and insolation.

    ``solar`` in [0, 1]: 0 = night, 1 = strong midday sun.
    """
    if wind_ms < 2:
        return StabilityClass.A if solar > 0.5 else StabilityClass.F
    if wind_ms < 4:
        return StabilityClass.B if solar > 0.5 else StabilityClass.E
    if wind_ms < 6:
        return StabilityClass.C if solar > 0.3 else StabilityClass.D
    return StabilityClass.D


@dataclass(frozen=True)
class GaussianPlume:
    """Dispersion of one source under one weather condition."""

    source: EmissionSource
    wind_ms: float
    wind_dir_rad: float  # direction the wind blows TOWARD
    stability: StabilityClass = StabilityClass.D

    def __post_init__(self):
        check_positive("wind_ms", self.wind_ms)

    def concentration(self, x_m: np.ndarray, y_m: np.ndarray
                      ) -> np.ndarray:
        """Ground-level concentration (µg/m³) at receptor points.

        ``x_m, y_m`` are absolute coordinates; the plume's own frame
        (downwind distance, crosswind offset) is derived internally.
        """
        x = np.asarray(x_m, dtype=float)
        y = np.asarray(y_m, dtype=float)
        dx = x - self.source.x_m
        dy = y - self.source.y_m
        cos_d = math.cos(self.wind_dir_rad)
        sin_d = math.sin(self.wind_dir_rad)
        downwind = dx * cos_d + dy * sin_d
        crosswind = -dx * sin_d + dy * cos_d

        concentration = np.zeros_like(downwind)
        mask = downwind > 1.0
        if not mask.any():
            return concentration
        sy = sigma_y(downwind[mask], self.stability)
        sz = sigma_z(downwind[mask], self.stability)
        q_ug = self.source.rate_g_per_s * 1e6
        height = self.source.stack_height_m
        base = q_ug / (
            2.0 * math.pi * self.wind_ms * sy * sz
        )
        lateral = np.exp(-0.5 * (crosswind[mask] / sy) ** 2)
        vertical = 2.0 * np.exp(-0.5 * (height / sz) ** 2)
        concentration[mask] = base * lateral * vertical
        return concentration


def concentration_grid(
    sources: Sequence[EmissionSource],
    wind_ms: float,
    wind_dir_rad: float,
    stability: StabilityClass,
    extent_m: float = 10_000.0,
    cells: int = 100,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Total concentration field on a square grid centered at origin.

    Returns (x, y, field) with field shape (cells, cells). The 10 km
    default extent matches the paper's "local scale (within 10 km from
    emission sources)".
    """
    check_positive("extent_m", extent_m)
    check_positive("cells", cells)
    coords = np.linspace(-extent_m / 2, extent_m / 2, cells)
    grid_x, grid_y = np.meshgrid(coords, coords)
    total = np.zeros_like(grid_x)
    for source in sources:
        plume = GaussianPlume(
            source=source,
            wind_ms=wind_ms,
            wind_dir_rad=wind_dir_rad,
            stability=stability,
        )
        total += plume.concentration(grid_x, grid_y)
    return grid_x, grid_y, total


def plume_flops(sources: int, cells: int) -> float:
    """Arithmetic cost of one grid evaluation (exp-heavy)."""
    # per receptor-source pair: ~2 exp (30 flops each) + ~20 arithmetic
    return float(sources) * cells * cells * 80.0
