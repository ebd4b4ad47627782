"""Synthetic city road networks.

A Vienna-like layout: a dense inner grid, ring roads and radial
arterials. Segments carry length, free-flow speed and capacity —
everything the volume-delay simulator and the router need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import networkx as nx

from repro.errors import SpecificationError
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class Segment:
    """Static attributes of one directed road segment."""

    length_m: float
    free_speed_ms: float
    capacity_veh_h: float
    kind: str  # "street" | "arterial" | "ring"

    @property
    def free_flow_time_s(self) -> float:
        """Traversal time at free-flow speed."""
        return self.length_m / self.free_speed_ms


class CityGraph:
    """Directed road graph with typed segments."""

    def __init__(self, graph: nx.DiGraph):
        self.graph = graph

    @property
    def num_nodes(self) -> int:
        """Intersection count."""
        return self.graph.number_of_nodes()

    @property
    def num_segments(self) -> int:
        """Directed segment count."""
        return self.graph.number_of_edges()

    def segment(self, a, b) -> Segment:
        """Static data of one segment."""
        if not self.graph.has_edge(a, b):
            raise SpecificationError(f"no segment {a!r}->{b!r}")
        return self.graph.edges[a, b]["segment"]

    def segments(self) -> List[Tuple[object, object, Segment]]:
        """All (from, to, segment) triples."""
        return [
            (a, b, data["segment"])
            for a, b, data in self.graph.edges(data=True)
        ]

    def position(self, node) -> Tuple[float, float]:
        """Planar coordinates of an intersection (meters)."""
        return self.graph.nodes[node]["pos"]

    def shortest_path(self, source, target,
                      weight: str = "free_time") -> List:
        """Free-flow shortest path (node list)."""
        return nx.shortest_path(
            self.graph, source, target, weight=weight
        )

    def path_segments(self, path: List) -> List[Tuple[object, object]]:
        """Edge list of a node path."""
        return list(zip(path, path[1:]))


#: Street block length (m).
BLOCK_M = 400.0


def build_city(grid: int = 8) -> CityGraph:
    """Construct the synthetic city.

    ``grid`` x ``grid`` intersections of surface streets (50 km/h),
    ``BLOCK_M`` apart, an orbital ring (70 km/h) around the perimeter
    and diagonal arterials (60 km/h) through the center.
    """
    check_positive("grid", grid)
    if grid < 3:
        raise SpecificationError("grid must be at least 3")
    graph = nx.DiGraph()

    def add_two_way(a, b, speed, capacity, kind):
        pos_a = graph.nodes[a]["pos"]
        pos_b = graph.nodes[b]["pos"]
        length = math.hypot(pos_b[0] - pos_a[0], pos_b[1] - pos_a[1])
        for src, dst in ((a, b), (b, a)):
            segment = Segment(
                length_m=length,
                free_speed_ms=speed,
                capacity_veh_h=capacity,
                kind=kind,
            )
            graph.add_edge(
                src, dst,
                segment=segment,
                free_time=segment.free_flow_time_s,
            )

    for row in range(grid):
        for col in range(grid):
            graph.add_node(
                (row, col), pos=(col * BLOCK_M, row * BLOCK_M)
            )
    for row in range(grid):
        for col in range(grid):
            if col + 1 < grid:
                add_two_way((row, col), (row, col + 1),
                            13.9, 900.0, "street")
            if row + 1 < grid:
                add_two_way((row, col), (row + 1, col),
                            13.9, 900.0, "street")

    perimeter = (
        [(0, col) for col in range(grid)]
        + [(row, grid - 1) for row in range(1, grid)]
        + [(grid - 1, col) for col in range(grid - 2, -1, -1)]
        + [(row, 0) for row in range(grid - 2, 0, -1)]
    )
    for a, b in zip(perimeter, perimeter[1:] + perimeter[:1]):
        # upgrade existing perimeter streets to ring quality
        pos_a = graph.nodes[a]["pos"]
        pos_b = graph.nodes[b]["pos"]
        length = math.hypot(
            pos_b[0] - pos_a[0], pos_b[1] - pos_a[1]
        )
        for src, dst in ((a, b), (b, a)):
            segment = Segment(
                length_m=length,
                free_speed_ms=19.4,
                capacity_veh_h=1800.0,
                kind="ring",
            )
            graph.add_edge(
                src, dst,
                segment=segment,
                free_time=segment.free_flow_time_s,
            )

    center = (grid // 2, grid // 2)
    for corner in (
        (0, 0), (0, grid - 1), (grid - 1, 0), (grid - 1, grid - 1)
    ):
        add_two_way(corner, center, 16.7, 1400.0, "arterial")

    return CityGraph(graph)
