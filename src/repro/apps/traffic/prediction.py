"""Per-segment speed prediction from historical FCD.

"traffic prediction model which learns from the training data set"
(§VI-C). The model keeps, per segment and hour-of-day, the running
mean and variance of observed probe speeds. The *distributions*
(mean, std) are exactly what the PTDR router samples from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.apps.traffic.fcd import FCDPoint, aggregate_speeds
from repro.apps.traffic.road_graph import CityGraph

EdgeKey = Tuple[object, object]


@dataclass
class _Profile:
    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def update(self, value: float, weight: int = 1) -> None:
        for _ in range(max(1, weight)):
            self.count += 1
            delta = value - self.mean
            self.mean += delta / self.count
            self.m2 += delta * (value - self.mean)

    def merge(self, mean: float, variance: float, count: int) -> None:
        """Fold a batch's (mean, variance, count) into the profile.

        Chan's parallel-variance merge: preserves the *within-batch*
        spread, so stop-and-go segments keep their wide distributions
        instead of collapsing to the variance of batch means.
        """
        if count <= 0:
            return
        total = self.count + count
        delta = mean - self.mean
        self.m2 += variance * count + (
            delta * delta * self.count * count / total
        )
        self.mean += delta * count / total
        self.count = total

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.5
        return math.sqrt(self.m2 / (self.count - 1))


class SpeedModel:
    """Historical segment speed estimator."""

    def __init__(self, city: CityGraph):
        self.city = city
        self._profiles: Dict[Tuple[EdgeKey, int], _Profile] = {}

    # ------------------------------------------------------------------

    def train(self, hour: int, points: List[FCDPoint]) -> None:
        """Fold one hour of probe data into the historical profiles."""
        aggregated = aggregate_speeds(points)
        for edge, (mean, std, count) in aggregated.items():
            profile = self._profiles.setdefault(
                (edge, hour % 24), _Profile()
            )
            profile.merge(mean, std * std, min(count, 50))

    # ------------------------------------------------------------------

    def predict(self, edge: EdgeKey, hour: int) -> Tuple[float, float]:
        """(mean, std) of the speed on a segment at an hour."""
        profile = self._profiles.get((edge, hour % 24))
        if profile is None or profile.count == 0:
            segment = self.city.segment(*edge)
            # untrained: free-flow prior with generous spread
            base_mean = segment.free_speed_ms * 0.85
            base_std = segment.free_speed_ms * 0.25
        else:
            base_mean = profile.mean
            base_std = max(profile.std, 0.3)
        return base_mean, base_std

    def predict_time(self, edge: EdgeKey, hour: int) -> float:
        """Expected traversal time of a segment."""
        mean, _std = self.predict(edge, hour)
        segment = self.city.segment(*edge)
        return segment.length_m / max(mean, 0.5)

    def mean_absolute_error(
        self, hour: int,
        true_speeds: Dict[EdgeKey, float],
    ) -> float:
        """MAE of predictions against true congested speeds."""
        errors = [
            abs(self.predict(edge, hour)[0] - true_speed)
            for edge, true_speed in true_speeds.items()
        ]
        return float(np.mean(errors)) if errors else 0.0
