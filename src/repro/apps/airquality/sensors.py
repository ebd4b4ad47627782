"""Low-cost air-quality sensor network.

"...the development of low-cost air-quality sensors providing massive
amounts of (low quality) spatial information" (§VI-B). Each sensor
samples the true field with multiplicative gain error, additive bias
and noise; the network supports bias calibration against a reference
station and inverse-distance-weighted field estimation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.utils.rng import deterministic_rng
from repro.utils.validation import check_positive


@dataclass
class Sensor:
    """One low-cost sensor with imperfect response."""

    name: str
    x_m: float
    y_m: float
    gain: float = 1.0
    bias_ug_m3: float = 0.0
    noise_std: float = 5.0
    calibration_offset: float = 0.0

    def measure(self, true_value: float,
                rng: np.random.Generator) -> float:
        """One reading of the true concentration."""
        raw = (
            self.gain * true_value
            + self.bias_ug_m3
            + rng.normal(0.0, self.noise_std)
        )
        return max(0.0, raw - self.calibration_offset)


class SensorNetwork:
    """A deployment of low-cost sensors around a site."""

    def __init__(self, sensors: List[Sensor], seed: str = "sensors"):
        if not sensors:
            raise ValueError("network needs at least one sensor")
        self.sensors = sensors
        self._rng = deterministic_rng("sensor-net", seed)

    @classmethod
    def deploy_ring(
        cls,
        count: int = 24,
        radius_m: float = 2_000.0,
        seed: str = "ring",
    ) -> "SensorNetwork":
        """Sensors on a ring around the site, with unit-to-unit spread."""
        check_positive("count", count)
        rng = deterministic_rng("sensor-deploy", seed)
        sensors = []
        for index in range(count):
            angle = 2 * np.pi * index / count
            sensors.append(Sensor(
                name=f"s{index}",
                x_m=float(radius_m * np.cos(angle)),
                y_m=float(radius_m * np.sin(angle)),
                gain=float(rng.normal(1.0, 0.15)),
                bias_ug_m3=float(rng.normal(8.0, 4.0)),
                noise_std=float(abs(rng.normal(5.0, 1.5))),
            ))
        return cls(sensors, seed=seed)

    # ------------------------------------------------------------------

    def observe(self, field_fn) -> List[Tuple[Sensor, float]]:
        """Sample every sensor; ``field_fn(x, y) -> true value``."""
        readings = []
        for sensor in self.sensors:
            true_value = float(field_fn(sensor.x_m, sensor.y_m))
            readings.append(
                (sensor, sensor.measure(true_value, self._rng))
            )
        return readings

    def calibrate(self, field_fn, samples: int = 32) -> None:
        """Estimate and remove each sensor's bias against truth.

        Models co-location calibration against a reference monitor:
        repeated sampling of a known field estimates the additive bias.
        """
        check_positive("samples", samples)
        for sensor in self.sensors:
            true_value = float(field_fn(sensor.x_m, sensor.y_m))
            errors = []
            for _ in range(samples):
                raw = (
                    sensor.gain * true_value
                    + sensor.bias_ug_m3
                    + self._rng.normal(0.0, sensor.noise_std)
                )
                errors.append(raw - true_value)
            sensor.calibration_offset = float(np.mean(errors))

    def estimate_at(
        self,
        x_m: float,
        y_m: float,
        readings: List[Tuple[Sensor, float]],
    ) -> float:
        """Inverse-distance-squared-weighted estimate from readings."""
        weights = []
        values = []
        for sensor, value in readings:
            distance = np.hypot(sensor.x_m - x_m, sensor.y_m - y_m)
            if distance < 1.0:
                return value
            weights.append(distance ** -2.0)
            values.append(value)
        weights_arr = np.asarray(weights)
        return float(
            np.average(np.asarray(values), weights=weights_arr)
        )

    def mean_absolute_error(self, field_fn,
                            readings=None) -> float:
        """Network MAE against the true field at sensor positions."""
        if readings is None:
            readings = self.observe(field_fn)
        errors = [
            abs(value - float(field_fn(sensor.x_m, sensor.y_m)))
            for sensor, value in readings
        ]
        return float(np.mean(errors))
