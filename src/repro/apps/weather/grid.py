"""Gridded weather fields with controllable spatial correlation.

The synthetic "atmosphere": a ground-truth wind-speed field at fine
resolution, built as a sum of smooth large-scale structure and
correlated small-scale variability. Coarse forecasts are produced by
*degrading* the truth (block-averaging plus phase noise), which gives
the resolution-vs-error relationship the energy use case measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.rng import deterministic_rng
from repro.utils.validation import check_positive


@dataclass
class WeatherField:
    """One scalar field on a regular grid."""

    name: str
    data: np.ndarray  # (ny, nx)
    resolution_km: float

    def __post_init__(self):
        check_positive("resolution_km", self.resolution_km)
        if self.data.ndim != 2:
            raise ValueError("weather fields are 2-D")

    @property
    def shape(self) -> Tuple[int, int]:
        """Grid shape (ny, nx)."""
        return self.data.shape  # type: ignore[return-value]

    def value_at_km(self, y_km: float, x_km: float) -> float:
        """Nearest-cell sample at a physical location."""
        ny, nx = self.data.shape
        row = min(ny - 1, max(0, int(y_km / self.resolution_km)))
        col = min(nx - 1, max(0, int(x_km / self.resolution_km)))
        return float(self.data[row, col])

    def block_average(self, factor: int) -> "WeatherField":
        """Coarsen by integer block averaging."""
        check_positive("factor", factor)
        ny, nx = self.data.shape
        if ny % factor or nx % factor:
            raise ValueError(
                f"grid {self.data.shape} not divisible by {factor}"
            )
        coarse = self.data.reshape(
            ny // factor, factor, nx // factor, factor
        ).mean(axis=(1, 3))
        return WeatherField(
            name=self.name,
            data=coarse,
            resolution_km=self.resolution_km * factor,
        )


def _correlated_noise(shape: Tuple[int, int], length_cells: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Spatially correlated Gaussian noise via FFT filtering."""
    white = rng.normal(size=shape)
    ky = np.fft.fftfreq(shape[0])[:, None]
    kx = np.fft.fftfreq(shape[1])[None, :]
    k2 = ky**2 + kx**2
    spectrum = np.exp(-0.5 * k2 * (2 * np.pi * length_cells) ** 2)
    filtered = np.real(np.fft.ifft2(np.fft.fft2(white) * spectrum))
    filtered -= filtered.mean()
    std = filtered.std()
    if std > 0:
        filtered /= std
    return filtered


def synth_truth(
    size_cells: int = 120,
    hour: int = 12,
    seed: str = "truth",
) -> WeatherField:
    """Fine-resolution (2.5 km) ground-truth wind-speed field for one hour.

    An 8 m/s base wind, large-scale synoptic structure (100 km
    correlation) plus mesoscale variability (15 km) plus a diurnal
    modulation; values clipped to physical wind speeds.
    """
    resolution_km = 2.5
    rng = deterministic_rng("weather-truth", seed, hour)
    shape = (size_cells, size_cells)
    synoptic = _correlated_noise(
        shape, 100.0 / resolution_km, rng
    ) * 2.5
    mesoscale = _correlated_noise(
        shape, 15.0 / resolution_km, rng
    ) * 1.5
    diurnal = 1.0 + 0.25 * np.sin(2 * np.pi * (hour - 9) / 24.0)
    data = np.clip(
        (8.0 + synoptic + mesoscale) * diurnal, 0.0, 40.0
    )
    return WeatherField("wind_speed", data, resolution_km)
