"""Tier-aware task placement over the ecosystem (paper Fig. 3).

Decides, per workflow task, which node of the end-point / inner-edge /
cloud hierarchy runs it: a greedy minimization of staging time (data
movement from where the inputs currently live) plus estimated compute
time on the candidate node. This is the placement half of "move the
computation closer to the data"; variant selection on the chosen node
is the autotuner's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import RuntimeSystemError
from repro.platform.node import Node
from repro.platform.topology import Ecosystem
from repro.workflow.graph import TaskGraph

#: Relative compute speed by node class (reference = cloud server).
_SPEED = {
    "ppc64le": 1.0,
    "x86": 1.0,
    "arm": 0.12,
    "riscv": 0.09,
    "fpga": 0.8,
    "mcu": 0.01,
    "switch": 0.0,
}


@dataclass
class Placement:
    """Result of placing one graph."""

    assignments: Dict[str, str] = field(default_factory=dict)
    #: Node each external input starts on.
    homes: Dict[str, str] = field(default_factory=dict)
    transfer_seconds: float = 0.0
    compute_seconds: float = 0.0
    bytes_moved: int = 0

    @property
    def total_seconds(self) -> float:
        """Serial estimate of the placed execution."""
        return self.transfer_seconds + self.compute_seconds


class TierPlacer:
    """Greedy placement of tasks onto ecosystem nodes."""

    def __init__(self, ecosystem: Ecosystem):
        self.ecosystem = ecosystem
        self.candidates = [
            name for name, node in ecosystem.nodes.items()
            if node.cpu is not None or node.has_fpga
        ]
        if not self.candidates:
            raise RuntimeSystemError("no candidate nodes for placement")

    def _speed(self, node: Node) -> float:
        speed = _SPEED.get(node.arch, 0.5)
        if speed <= 0:
            return 0.0
        if node.has_fpga and node.cpu is not None:
            speed *= 1.5  # accelerator headroom
        return speed

    def place(self, graph: TaskGraph) -> Placement:
        """Assign every task to a node, propagating data locations."""
        return self._place(graph, self.candidates)

    def place_fixed(self, graph: TaskGraph, node_name: str) -> Placement:
        """Force every task onto one node (baseline strategy)."""
        if node_name not in self.ecosystem.nodes:
            raise RuntimeSystemError(f"unknown node {node_name!r}")
        return self._place(graph, [node_name])

    def _place(self, graph: TaskGraph, candidates: List[str]
               ) -> Placement:
        """Greedy placement over ``candidates``; an input with no (or
        an unknown) locality starts on the first candidate."""
        graph.validate()
        placement = Placement()
        for obj in graph.external_inputs():
            home = obj.locality
            if home not in self.ecosystem.nodes:
                home = candidates[0]
            placement.homes[obj.name] = home
        locations = dict(placement.homes)

        for task_name in graph.topological_order():
            task = graph.tasks[task_name]
            best_node = None
            best_cost = None
            best_staging = None
            for candidate in candidates:
                node = self.ecosystem.nodes[candidate]
                speed = self._speed(node)
                if speed <= 0:
                    continue
                staging = 0.0
                for input_name in task.inputs:
                    staging += self.ecosystem.transfer_time(
                        locations[input_name], candidate,
                        graph.objects[input_name].size_bytes,
                    )
                compute = task.duration_s / speed
                cost = staging + compute
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_node = candidate
                    best_staging = staging
            if best_node is None:
                raise RuntimeSystemError(
                    f"no node can run task {task_name!r}"
                )
            placement.assignments[task_name] = best_node
            placement.transfer_seconds += best_staging
            placement.compute_seconds += (
                task.duration_s / self._speed(
                    self.ecosystem.nodes[best_node])
            )
            for input_name in task.inputs:
                source = locations[input_name]
                if source != best_node:
                    placement.bytes_moved += (
                        graph.objects[input_name].size_bytes
                    )
            for output_name in task.outputs:
                locations[output_name] = best_node
        return placement
