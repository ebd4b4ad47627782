"""Floating car data generation.

"FCD is represented by geo position and the speed of vehicle sensed
approximately each 5 seconds from navigation devices" (§VI-C). The
generator drives synthetic vehicles along congested shortest paths and
emits 5-second probe points with GPS position noise and speed
measurement error — the raw feed the speed model aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.apps.traffic.road_graph import CityGraph
from repro.apps.traffic.simulator import HourState
from repro.utils.rng import deterministic_rng
from repro.utils.validation import check_positive

#: Probe period in seconds.
PROBE_PERIOD_S = 5.0
#: Probe position noise (m) and base speed noise (m/s).
GPS_NOISE_M = 8.0
SPEED_NOISE_MS = 0.6


@dataclass(frozen=True)
class FCDPoint:
    """One probe report."""

    x_m: float
    y_m: float
    speed_ms: float
    edge: Tuple[object, object]


class FCDGenerator:
    """Drives probe vehicles through one hour's congested state."""

    def __init__(self, city: CityGraph, seed: str = "fcd"):
        self.city = city
        self.seed = seed

    def drive(
        self,
        state: HourState,
        path: List,
        vehicle_id: int,
        depart_s: float = 0.0,
    ) -> List[FCDPoint]:
        """Emit probe points for one vehicle along a path."""
        rng = deterministic_rng(
            "fcd-drive", self.seed, vehicle_id, state.hour
        )
        points: List[FCDPoint] = []
        clock = depart_s
        next_probe = depart_s
        for edge in self.city.path_segments(path):
            segment = self.city.segment(*edge)
            edge_time = state.times_s[edge]
            speed = segment.length_m / edge_time
            # Congested segments show stop-and-go variability: the
            # speed spread grows with the deficit below free flow.
            spread = SPEED_NOISE_MS + 0.45 * max(
                0.0, segment.free_speed_ms - speed
            )
            pos_a = self.city.position(edge[0])
            pos_b = self.city.position(edge[1])
            while next_probe < clock + edge_time:
                progress = (next_probe - clock) / edge_time
                x = pos_a[0] + progress * (pos_b[0] - pos_a[0])
                y = pos_a[1] + progress * (pos_b[1] - pos_a[1])
                points.append(FCDPoint(
                    x_m=float(x + rng.normal(0, GPS_NOISE_M)),
                    y_m=float(y + rng.normal(0, GPS_NOISE_M)),
                    speed_ms=float(max(0.0, speed + rng.normal(
                        0, spread))),
                    edge=edge,
                ))
                next_probe += PROBE_PERIOD_S
            clock += edge_time
        return points

    def generate_hour(
        self,
        state: HourState,
        vehicles: int = 200,
        seed_offset: int = 0,
    ) -> List[FCDPoint]:
        """Probe data for many random trips in one hour."""
        check_positive("vehicles", vehicles)
        rng = deterministic_rng(
            "fcd-hour", self.seed, state.hour, seed_offset
        )
        nodes = list(self.city.graph.nodes)
        points: List[FCDPoint] = []
        for vehicle in range(vehicles):
            origin, destination = rng.choice(
                len(nodes), size=2, replace=False
            )
            try:
                path = self.city.shortest_path(
                    nodes[int(origin)], nodes[int(destination)]
                )
            except Exception:
                continue
            if len(path) < 2:
                continue
            depart = float(rng.uniform(0, 3600))
            points.extend(self.drive(
                state, path, vehicle_id=vehicle + seed_offset,
                depart_s=depart,
            ))
        return points


def aggregate_speeds(
    points: List[FCDPoint],
) -> Dict[Tuple[object, object], Tuple[float, float, int]]:
    """Per-edge (mean speed, std, count) from probe points."""
    by_edge: Dict[Tuple[object, object], List[float]] = {}
    for point in points:
        by_edge.setdefault(point.edge, []).append(point.speed_ms)
    result = {}
    for edge, speeds in by_edge.items():
        arr = np.asarray(speeds)
        result[edge] = (
            float(arr.mean()),
            float(arr.std()),
            int(arr.size),
        )
    return result
