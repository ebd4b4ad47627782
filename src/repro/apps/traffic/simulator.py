"""Mesoscopic traffic simulator.

"Traffic simulator simulates individual clients driving around the
smart city by combining both macro and microscopic approaches"
(§VI-C, [42]). This model is mesoscopic: demand is assigned to
shortest paths under *current* congested travel times (one-shot
incremental assignment per hour), and segment speeds follow the BPR
volume-delay function

    t = t0 * (1 + alpha * (v / c) ^ beta)

The simulator produces per-segment, per-hour congested speeds — the
"rich training sequences" the prediction model learns from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import networkx as nx
import numpy as np

from repro.apps.traffic.od_matrix import ODMatrix, diurnal_profile
from repro.apps.traffic.road_graph import CityGraph
from repro.utils.validation import check_positive

_BPR_ALPHA = 0.55
_BPR_BETA = 4.0


def bpr_time(free_time_s: float, volume: float, capacity: float
             ) -> float:
    """BPR congested traversal time."""
    ratio = volume / max(capacity, 1e-9)
    return free_time_s * (1.0 + _BPR_ALPHA * ratio**_BPR_BETA)


@dataclass
class HourState:
    """Simulated state of one hour."""

    hour: int
    times_s: Dict[Tuple[object, object], float]

    def speed_ms(self, city: CityGraph, edge: Tuple[object, object]
                 ) -> float:
        """Congested speed on a segment."""
        segment = city.segment(*edge)
        return segment.length_m / self.times_s[edge]

    def congestion_index(self, city: CityGraph) -> float:
        """Mean ratio of congested to free-flow time."""
        ratios = []
        for edge, time_s in self.times_s.items():
            segment = city.segment(*edge)
            ratios.append(time_s / segment.free_flow_time_s)
        return float(np.mean(ratios))


class TrafficSimulator:
    """Hour-by-hour incremental assignment over a city."""

    def __init__(self, city: CityGraph, od: ODMatrix,
                 increments: int = 4):
        check_positive("increments", increments)
        self.city = city
        self.od = od
        self.increments = increments

    def simulate_hour(self, hour: int) -> HourState:
        """Assign one hour's demand; returns the congested state."""
        scale = diurnal_profile(hour)
        graph = self.city.graph
        volumes: Dict[Tuple[object, object], float] = {
            (a, b): 0.0 for a, b in graph.edges
        }
        times: Dict[Tuple[object, object], float] = {
            (a, b): self.city.segment(a, b).free_flow_time_s
            for a, b in graph.edges
        }

        working = graph.copy()
        for (a, b), time_s in times.items():
            working.edges[a, b]["congested"] = time_s

        demand_items = sorted(
            self.od.pairs.items(), key=lambda item: repr(item[0])
        )
        for _increment in range(self.increments):
            fraction = 1.0 / self.increments
            for (origin, destination), base_rate in demand_items:
                trips = base_rate * scale * fraction
                if trips <= 0:
                    continue
                try:
                    path = nx.shortest_path(
                        working, origin, destination,
                        weight="congested",
                    )
                except nx.NetworkXNoPath:
                    continue
                for edge in zip(path, path[1:]):
                    volumes[edge] += trips
            # update congested times after each increment
            for edge in volumes:
                segment = self.city.segment(*edge)
                times[edge] = bpr_time(
                    segment.free_flow_time_s,
                    volumes[edge],
                    segment.capacity_veh_h,
                )
                working.edges[edge]["congested"] = times[edge]
        return HourState(hour=hour, times_s=times)
