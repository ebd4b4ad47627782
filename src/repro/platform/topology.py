"""Ecosystem topology: end-point devices, inner edge, core cloud (Fig. 3).

The :class:`Ecosystem` holds nodes assigned to tiers and the links
between them as a plain adjacency (``{node: {neighbour: Link}}``); a
route is the fewest-hops path a breadth-first search finds. It answers
the questions the runtime scheduler asks: what does it cost (time,
energy) to move a data object from where it is to where a task wants
to run, and which nodes sit in which tier.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import PlatformError
from repro.platform.interconnect import (
    EdgeUplink,
    EthernetLink,
    Link,
    SensorLink,
)
from repro.platform.node import (
    Node,
    build_cloudfpga_node,
    build_edge_node,
    build_gpu_node,
    build_power9_node,
)


class Tier(enum.Enum):
    """Processing tiers of the EVEREST ecosystem, outermost first."""

    ENDPOINT = "endpoint"
    INNER_EDGE = "inner_edge"
    CLOUD = "cloud"


class LinkOverlay:
    """Link faults in force, per unordered node pair.

    Each pair holds a stack of ``(bandwidth_factor, latency_add_s)``
    degradations and a count of partitions. A fault adds one entry and
    its heal removes that entry only, so overlapping faults on one pair
    end one at a time. The ecosystem's links and the workflow engine's
    default staging path both keep their fault state in one of these.
    """

    def __init__(self):
        self._degradations: Dict[Tuple[str, str],
                                 List[Tuple[float, float]]] = {}
        self._partitions: Dict[Tuple[str, str], int] = {}

    @staticmethod
    def _pair(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def add(self, a: str, b: str,
            degradation: Optional[Tuple[float, float]]) -> None:
        """Put one fault in force on the pair.

        ``degradation`` is ``(bandwidth_factor, latency_add_s)`` — the
        bandwidth is scaled by a factor in (0, 1] and the latency
        raised per hop — or ``None`` to sever the link.
        """
        pair = self._pair(a, b)
        if degradation is None:
            self._partitions[pair] = self._partitions.get(pair, 0) + 1
            return
        bandwidth_factor, latency_add_s = degradation
        if not 0.0 < bandwidth_factor <= 1.0:
            raise PlatformError(
                f"bandwidth_factor must be in (0, 1], got {bandwidth_factor}"
            )
        if latency_add_s < 0.0:
            raise PlatformError(
                f"latency_add_s must be >= 0, got {latency_add_s}"
            )
        self._degradations.setdefault(pair, []).append(degradation)

    def remove(self, a: str, b: str,
               degradation: Optional[Tuple[float, float]]) -> None:
        """End one fault that :meth:`add` put in force with these
        arguments; the pair's other faults stay."""
        pair = self._pair(a, b)
        if degradation is None:
            self._partitions[pair] -= 1
            if not self._partitions[pair]:
                del self._partitions[pair]
            return
        stack = self._degradations[pair]
        stack.remove(degradation)
        if not stack:
            del self._degradations[pair]

    def state(self, a: str, b: str) -> Tuple[float, float]:
        """(bandwidth_factor, latency_add_s) of the degradations in
        force: factors multiply, added latencies sum."""
        factor = 1.0
        latency_add = 0.0
        for bandwidth_factor, latency_add_s in self._degradations.get(
                self._pair(a, b), ()):
            factor *= bandwidth_factor
            latency_add += latency_add_s
        return factor, latency_add

    def is_partitioned(self, a: str, b: str) -> bool:
        """True while at least one partition of the pair is in force."""
        return self._pair(a, b) in self._partitions


class Ecosystem:
    """A multi-tier deployment of nodes connected by typed links."""

    def __init__(self, name: str = "everest"):
        self.name = name
        #: node -> {neighbour: the link between them}, both directions,
        #: neighbours in the order they were connected.
        self._links: Dict[str, Dict[str, Link]] = {}
        self.nodes: Dict[str, Node] = {}
        self.tiers: Dict[str, Tier] = {}
        #: Link faults in force: degraded links are slower, partitioned
        #: links are excluded from routing entirely.
        self.overlay = LinkOverlay()

    def add_node(self, node: Node, tier: Tier) -> Node:
        """Register a node in a tier."""
        if node.name in self.nodes:
            raise PlatformError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        self.tiers[node.name] = tier
        self._links[node.name] = {}
        return node

    def connect(self, a: str, b: str, link: Link) -> None:
        """Connect two registered nodes with a link."""
        for name in (a, b):
            if name not in self.nodes:
                raise PlatformError(f"unknown node {name!r}")
        self._links[a][b] = link
        self._links[b][a] = link

    def nodes_in_tier(self, tier: Tier) -> List[Node]:
        """All nodes assigned to ``tier``."""
        return [
            self.nodes[name]
            for name, node_tier in self.tiers.items()
            if node_tier is tier
        ]

    def link_between(self, a: str, b: str) -> Link:
        """The direct link between two nodes."""
        link = self._links.get(a, {}).get(b)
        if link is None:
            raise PlatformError(f"no direct link between {a!r} and {b!r}")
        return link

    def is_partitioned(self, a: str, b: str) -> bool:
        """True while the direct link is severed."""
        return self.overlay.is_partitioned(a, b)

    def _hop_time(self, a: str, b: str, num_bytes: int) -> float:
        link = self.link_between(a, b)
        factor, extra_latency = self.overlay.state(a, b)
        if factor == 1.0 and extra_latency == 0.0:
            return link.transfer_time(num_bytes)
        return (
            link.latency_s
            + extra_latency
            + link.per_message_overhead
            + num_bytes / (link.bandwidth * factor)
        )

    # ------------------------------------------------------------------

    def path(self, source: str, target: str) -> List[str]:
        """Shortest (fewest-hops) node path avoiding partitioned links."""
        came_from = {source: None}
        frontier = [source] if target in self._links else []
        for node in frontier:  # grows while it is walked: a FIFO queue
            if node == target:
                hops = []
                while node is not None:
                    hops.append(node)
                    node = came_from[node]
                return hops[::-1]
            for neighbour in self._links.get(node, ()):
                if (neighbour not in came_from
                        and not self.overlay.is_partitioned(
                            node, neighbour)):
                    came_from[neighbour] = node
                    frontier.append(neighbour)
        raise PlatformError(
            f"no path between {source!r} and {target!r}"
        )

    def transfer_time(self, source: str, target: str, num_bytes: int
                      ) -> float:
        """End-to-end time to move ``num_bytes`` along the hop path."""
        if source == target:
            return 0.0
        total = 0.0
        hops = self.path(source, target)
        for a, b in zip(hops, hops[1:]):
            total += self._hop_time(a, b, num_bytes)
        return total

    def transfer_energy(self, source: str, target: str, num_bytes: int
                        ) -> float:
        """Energy to move ``num_bytes`` along the hop path."""
        if source == target:
            return 0.0
        total = 0.0
        hops = self.path(source, target)
        for a, b in zip(hops, hops[1:]):
            total += self.link_between(a, b).transfer_energy(num_bytes)
        return total

    def all_links(self) -> Iterable[Tuple[str, str, Link]]:
        """Iterate over (a, b, link) triples."""
        listed = set()
        for a, neighbours in self._links.items():
            for b, link in neighbours.items():
                if b not in listed:
                    yield a, b, link
            listed.add(a)


def build_reference_ecosystem(uplink_mbps: float = 100.0) -> Ecosystem:
    """The EVEREST demonstrator topology of Figs. 3 and 4.

    Eight end-point sensors feed two edge gateways over low-power
    links; the gateways reach the cloud over a WAN uplink; inside the
    datacenter, one POWER9 node, one GPU baseline node and four
    cloudFPGA modules share the Ethernet fabric through a leaf switch
    (modeled as a star around ``dc-switch``).
    """
    eco = Ecosystem("everest-demonstrator")

    switch = Node(name="dc-switch", arch="switch")
    eco.add_node(switch, Tier.CLOUD)

    for node in (build_power9_node("power9-0"), build_gpu_node("gpu-0")):
        eco.add_node(node, Tier.CLOUD)
        eco.connect(
            node.name, "dc-switch", EthernetLink(f"{node.name}/net", 100.0)
        )

    for index in range(4):
        node = eco.add_node(
            build_cloudfpga_node(f"cloudfpga-{index}"), Tier.CLOUD
        )
        eco.connect(
            node.name,
            "dc-switch",
            EthernetLink(f"{node.name}/net", 10.0, protocol="udp"),
        )

    edge_names: List[str] = []
    for index in range(2):
        arch = "arm" if index % 2 == 0 else "riscv"
        node = eco.add_node(
            build_edge_node(f"edge-{index}", arch=arch), Tier.INNER_EDGE
        )
        eco.connect(
            node.name, "dc-switch", EdgeUplink(f"{node.name}/wan",
                                               mbps=uplink_mbps)
        )
        edge_names.append(node.name)

    for index in range(8):
        endpoint = Node(name=f"endpoint-{index}", arch="mcu")
        eco.add_node(endpoint, Tier.ENDPOINT)
        eco.connect(
            endpoint.name,
            edge_names[index % len(edge_names)],
            SensorLink(f"{endpoint.name}/radio", kbps=250.0),
        )

    return eco
