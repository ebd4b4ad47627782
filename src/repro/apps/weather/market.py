"""Energy-market imbalance costing.

"In EVEREST, we aim at reducing the cost of imbalance in case of
severe meteorological ramp-up/down events" (§VI-A). A producer commits
a day-ahead hourly schedule; deviations settle at penalty prices that
are worse than the day-ahead price in both directions, and ramp events
(fast production changes the forecast missed) are where the money is
lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class ImbalanceMarket:
    """Simple two-price imbalance settlement."""

    day_ahead_eur_mwh: float = 55.0
    shortfall_penalty_eur_mwh: float = 38.0  # paid on missing MWh
    surplus_discount_eur_mwh: float = 30.0  # lost on excess MWh

    def __post_init__(self):
        check_positive("day_ahead_eur_mwh", self.day_ahead_eur_mwh)
        check_non_negative("shortfall_penalty_eur_mwh",
                           self.shortfall_penalty_eur_mwh)
        check_non_negative("surplus_discount_eur_mwh",
                           self.surplus_discount_eur_mwh)

    def revenue(self, committed_mwh: Sequence[float],
                actual_mwh: Sequence[float]) -> float:
        """Settlement revenue for one day (EUR)."""
        committed = np.asarray(committed_mwh, dtype=float)
        actual = np.asarray(actual_mwh, dtype=float)
        if committed.shape != actual.shape:
            raise ValueError("schedules must have equal length")
        base = committed.sum() * self.day_ahead_eur_mwh
        shortfall = np.clip(committed - actual, 0.0, None)
        surplus = np.clip(actual - committed, 0.0, None)
        penalty = shortfall.sum() * (
            self.day_ahead_eur_mwh + self.shortfall_penalty_eur_mwh
        )
        credit = surplus.sum() * max(
            self.day_ahead_eur_mwh - self.surplus_discount_eur_mwh, 0.0
        )
        return float(base - penalty + credit)

    def imbalance_cost(self, committed_mwh: Sequence[float],
                       actual_mwh: Sequence[float]) -> float:
        """EUR lost against a perfect forecast of the same day."""
        actual = np.asarray(actual_mwh, dtype=float)
        perfect = self.revenue(actual, actual)
        realized = self.revenue(committed_mwh, actual_mwh)
        return float(perfect - realized)
