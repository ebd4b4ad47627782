"""The few statistics the harness reports, in one place."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
#: A percentile is only reported with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method, interpolated)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        pct - 1]


def tail_percentile(samples: int) -> int:
    """The highest percentile with at least ten samples beyond it.

    20 samples give p50, 40 give p75, 100 give p90. Below 20 samples
    no percentile qualifies and the median is all there is to report.
    """
    for pct in TAIL_PERCENTILES:
        if samples * (100 - pct) >= MIN_SAMPLES_BEYOND * 100:
            return pct
    return 50


def median_and_tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(median, tail value, tail percentile)`` of one sample set."""
    pct = tail_percentile(len(values))
    return statistics.median(values), percentile(values, pct), pct


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    The contract's run-to-run spread: ``statistics.quantiles(n=4)``
    first to third quartile over the median.
    """
    if len(values) < 2:
        return 0.0
    first, middle, third = statistics.quantiles(values, n=4)
    return (third - first) / middle if middle else 0.0
