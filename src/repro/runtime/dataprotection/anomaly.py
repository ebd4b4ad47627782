"""Hardware-monitor models for anomaly detection.

"Dedicated hardware monitors will detect anomalies with respect to the
expected data behaviors (timing patterns, access patterns, typical
sizes and ranges)" (paper §III-B). A :class:`HardwareMonitor` learns a
baseline per metric with Welford's online mean/variance, then flags
observations whose z-score exceeds a threshold; a minimum training
count prevents firing before the baseline stabilizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class Anomaly:
    """One detection."""

    metric: str
    value: float
    z_score: float


@dataclass
class _Baseline:
    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def update(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.count - 1))


class HardwareMonitor:
    """Per-metric baseline learner and z-score detector."""

    def __init__(self, threshold_sigma: float = 4.0,
                 min_training: int = 16):
        check_positive("threshold_sigma", threshold_sigma)
        check_positive("min_training", min_training)
        self.threshold_sigma = threshold_sigma
        self.min_training = min_training
        self._baselines: Dict[str, _Baseline] = {}
        self.frozen = False

    # ------------------------------------------------------------------

    def train(self, metric: str, value: float) -> None:
        """Feed a known-good observation into the baseline."""
        baseline = self._baselines.setdefault(metric, _Baseline())
        baseline.update(value)

    def freeze(self) -> None:
        """Stop adapting baselines (deployment mode).

        While unfrozen, non-anomalous observations keep refining the
        baseline; frozen monitors only detect.
        """
        self.frozen = True

    def observe(self, metric: str, value: float) -> Optional[Anomaly]:
        """Check an observation; returns the anomaly if flagged."""
        baseline = self._baselines.get(metric)
        if baseline is None:
            baseline = self._baselines[metric] = _Baseline()
        if baseline.count < self.min_training:
            baseline.update(value)
            return None
        std = baseline.std
        if std == 0:
            anomalous = value != baseline.mean
            z_score = math.inf if anomalous else 0.0
        else:
            z_score = abs(value - baseline.mean) / std
            anomalous = z_score > self.threshold_sigma
        if anomalous:
            return Anomaly(metric=metric, value=value, z_score=z_score)
        if not self.frozen:
            baseline.update(value)
        return None
