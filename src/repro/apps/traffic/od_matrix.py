"""Origin-destination demand matrices.

"As the main data input into the system we will use provisioned
origin-destination matrix (O/D)" (§VI-C). Demand between zones follows
a gravity model — proportional to zone weights, decaying with
distance — modulated by a double-peaked diurnal profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.apps.traffic.road_graph import CityGraph
from repro.utils.rng import deterministic_rng
from repro.utils.validation import check_non_negative, check_positive


@dataclass
class ODMatrix:
    """Hourly trip demand between node pairs."""

    pairs: Dict[Tuple[object, object], float] = field(
        default_factory=dict
    )

    def demand(self, origin, destination) -> float:
        """Trips per hour for one pair."""
        return self.pairs.get((origin, destination), 0.0)

    def scaled(self, factor: float) -> "ODMatrix":
        """Matrix with all demands multiplied."""
        check_non_negative("factor", factor)
        return ODMatrix({
            pair: trips * factor for pair, trips in self.pairs.items()
        })


def diurnal_profile(hour: int) -> float:
    """Demand multiplier: morning and evening peaks over a base."""
    morning = 1.6 * math.exp(-0.5 * ((hour - 8.0) / 1.4) ** 2)
    evening = 1.8 * math.exp(-0.5 * ((hour - 17.5) / 1.6) ** 2)
    night_base = 0.15 + 0.35 * math.exp(
        -0.5 * ((hour - 13.0) / 4.0) ** 2
    )
    return night_base + morning + evening


#: Trips per day across all zone pairs.
DAILY_TRIPS = 300_000.0
#: Distance over which the gravity attraction decays by e (m).
DECAY_M = 2_500.0


def gravity_demand(
    city: CityGraph,
    zones: int = 12,
    seed: str = "od",
) -> ODMatrix:
    """Gravity-model hourly base demand between sampled zones.

    Zone weights are lognormal (a few heavy attractors — the business
    district, the industrial park) and attraction decays over
    ``DECAY_M``; the returned matrix is the *base* hourly rate (a
    ``DAILY_TRIPS`` day) to be scaled by :func:`diurnal_profile`.
    """
    check_positive("zones", zones)
    rng = deterministic_rng("gravity", seed)
    nodes = list(city.graph.nodes)
    if zones > len(nodes):
        raise ValueError("more zones than intersections")
    chosen_indices = rng.choice(len(nodes), size=zones, replace=False)
    chosen = [nodes[int(index)] for index in chosen_indices]
    weights = rng.lognormal(mean=0.0, sigma=0.8, size=zones)

    raw: Dict[Tuple[object, object], float] = {}
    for i, origin in enumerate(chosen):
        for j, destination in enumerate(chosen):
            if origin == destination:
                continue
            pos_o = city.position(origin)
            pos_d = city.position(destination)
            distance = math.hypot(
                pos_d[0] - pos_o[0], pos_d[1] - pos_o[1]
            )
            raw[(origin, destination)] = (
                weights[i] * weights[j]
                * math.exp(-distance / DECAY_M)
            )
    total_raw = sum(raw.values())
    hourly_base = DAILY_TRIPS / 24.0
    return ODMatrix({
        pair: value / total_raw * hourly_base
        for pair, value in raw.items()
    })
