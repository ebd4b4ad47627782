"""Energy-market imbalance costing.

"In EVEREST, we aim at reducing the cost of imbalance in case of
severe meteorological ramp-up/down events" (§VI-A). A producer commits
a day-ahead hourly schedule; deviations settle at penalty prices that
are worse than the day-ahead price in both directions, and ramp events
(fast production changes the forecast missed) are where the money is
lost.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Day-ahead price (EUR/MWh).
DAY_AHEAD_EUR_MWH = 55.0
#: Penalty on each missing MWh, over the day-ahead price (EUR/MWh).
SHORTFALL_PENALTY_EUR_MWH = 38.0
#: Discount on each excess MWh, under the day-ahead price (EUR/MWh).
SURPLUS_DISCOUNT_EUR_MWH = 30.0


class ImbalanceMarket:
    """Simple two-price imbalance settlement."""

    def revenue(self, committed_mwh: Sequence[float],
                actual_mwh: Sequence[float]) -> float:
        """Settlement revenue for one day (EUR)."""
        committed = np.asarray(committed_mwh, dtype=float)
        actual = np.asarray(actual_mwh, dtype=float)
        if committed.shape != actual.shape:
            raise ValueError("schedules must have equal length")
        base = committed.sum() * DAY_AHEAD_EUR_MWH
        shortfall = np.clip(committed - actual, 0.0, None)
        surplus = np.clip(actual - committed, 0.0, None)
        penalty = shortfall.sum() * (
            DAY_AHEAD_EUR_MWH + SHORTFALL_PENALTY_EUR_MWH
        )
        credit = surplus.sum() * max(
            DAY_AHEAD_EUR_MWH - SURPLUS_DISCOUNT_EUR_MWH, 0.0
        )
        return float(base - penalty + credit)

    def imbalance_cost(self, committed_mwh: Sequence[float],
                       actual_mwh: Sequence[float]) -> float:
        """EUR lost against a perfect forecast of the same day."""
        actual = np.asarray(actual_mwh, dtype=float)
        perfect = self.revenue(actual, actual)
        realized = self.revenue(committed_mwh, actual_mwh)
        return float(perfect - realized)
