"""Tests for node builders, ecosystem topology, and energy metering.

networkx is the routing oracle (as in ``tests/utils/test_dag.py``): the
topology answers ``path()`` with its own breadth-first search.
"""

import itertools
import random

import networkx as nx
import pytest

from repro.errors import PlatformError
from repro.platform.node import (
    CloudFPGANode,
    build_cloudfpga_node,
    build_edge_node,
    build_gpu_node,
    build_power9_node,
)
from repro.platform.power import EnergyMeter
from repro.platform.topology import (
    Ecosystem,
    Tier,
    build_reference_ecosystem,
)
from repro.platform.interconnect import EthernetLink
from repro.platform.node import Node
from repro.platform.resources import CPUDescription


class TestNodeBuilders:
    def test_power9_has_coherent_fpga(self):
        node = build_power9_node()
        assert node.has_fpga and node.has_coherent_fpga
        assert node.arch == "ppc64le"

    def test_power9_card_has_its_own_memory(self):
        node = build_power9_node("p")
        (fpga,) = node.fpgas
        assert list(fpga.memories) == ["p/fpga0-ddr"]

    def test_cloudfpga_has_no_cpu(self):
        node = build_cloudfpga_node()
        assert node.cpu is None
        assert node.arch == "fpga"
        assert node.has_fpga

    def test_cloudfpga_with_a_host_cpu_is_rejected(self):
        # the orchestrator and the tier placer read ``cpu is None`` as
        # "network-attached"; the check was name-mangled, never called
        cpu = CPUDescription(name="x", cores=4, frequency_hz=2e9,
                             flops_per_cycle=4.0, tdp_watts=65.0,
                             idle_watts=10.0)
        with pytest.raises(PlatformError,
                           match="a cloudFPGA node has no host CPU"):
            CloudFPGANode(name="x", cpu=cpu)
        assert CloudFPGANode(name="x").cpu is None

    def test_edge_node_arch_variants(self):
        arm = build_edge_node("e0", arch="arm")
        riscv = build_edge_node("e1", arch="riscv")
        assert arm.cpu.name == "ARM"
        assert riscv.cpu.name == "RISCV"

    def test_edge_invalid_arch(self):
        with pytest.raises(PlatformError):
            build_edge_node(arch="mips")

    def test_edge_fpga_is_not_coherent(self):
        node = build_edge_node()
        assert node.has_fpga and not node.has_coherent_fpga

    def test_gpu_node(self):
        node = build_gpu_node()
        assert node.gpu is not None
        assert not node.has_fpga

    def test_idle_watts_positive(self):
        for node in (build_power9_node(), build_edge_node(),
                     build_gpu_node()):
            assert node.idle_watts() > 0

    def test_duplicate_memory_rejected(self):
        node = build_power9_node()
        memory = next(iter(node.memories.values()))
        with pytest.raises(PlatformError):
            node.add_memory(memory)

    def test_describe_mentions_fpgas(self):
        assert "fpgas=1" in build_power9_node().describe()


class TestEcosystem:
    def test_reference_ecosystem_tiers(self):
        eco = build_reference_ecosystem()
        assert len(eco.nodes_in_tier(Tier.ENDPOINT)) == 8
        assert len(eco.nodes_in_tier(Tier.INNER_EDGE)) == 2
        assert len(eco.nodes_in_tier(Tier.CLOUD)) >= 6

    def test_duplicate_node_rejected(self):
        eco = Ecosystem()
        eco.add_node(Node(name="n"), Tier.CLOUD)
        with pytest.raises(PlatformError):
            eco.add_node(Node(name="n"), Tier.CLOUD)

    def test_connect_unknown_node_rejected(self):
        eco = Ecosystem()
        eco.add_node(Node(name="a"), Tier.CLOUD)
        with pytest.raises(PlatformError):
            eco.connect("a", "ghost", EthernetLink())

    def test_path_and_transfer(self):
        eco = build_reference_ecosystem()
        path = eco.path("endpoint-0", "power9-0")
        assert path[0] == "endpoint-0"
        assert path[-1] == "power9-0"
        assert len(path) >= 3  # via edge gateway and switch
        assert eco.transfer_time("endpoint-0", "power9-0", 1000) > 0

    def test_transfer_to_self_is_free(self):
        eco = build_reference_ecosystem()
        assert eco.transfer_time("power9-0", "power9-0", 10**6) == 0.0

    def test_no_path_raises(self):
        eco = Ecosystem()
        eco.add_node(Node(name="a"), Tier.CLOUD)
        eco.add_node(Node(name="b"), Tier.CLOUD)
        with pytest.raises(PlatformError):
            eco.path("a", "b")

    def test_edge_closer_than_cloud(self):
        eco = build_reference_ecosystem()
        to_edge = eco.transfer_time("endpoint-0", "edge-0", 10**4)
        to_cloud = eco.transfer_time("endpoint-0", "power9-0", 10**4)
        assert to_edge < to_cloud

    def test_transfer_energy_positive(self):
        eco = build_reference_ecosystem()
        assert eco.transfer_energy("endpoint-0", "edge-0", 1000) > 0

    def test_transfer_time_sums_every_hop(self):
        eco = build_reference_ecosystem()
        hops = eco.path("endpoint-0", "power9-0")
        assert eco.transfer_time("endpoint-0", "power9-0", 500) == \
            pytest.approx(sum(
                eco.link_between(a, b).transfer_time(500)
                for a, b in zip(hops, hops[1:])
            ))

    def test_transfer_energy_sums_every_hop(self):
        eco = build_reference_ecosystem()
        hops = eco.path("endpoint-0", "power9-0")
        assert eco.transfer_energy("endpoint-0", "power9-0", 500) == \
            pytest.approx(sum(
                eco.link_between(a, b).transfer_energy(500)
                for a, b in zip(hops, hops[1:])
            ))


def _oracle(eco):
    """The ecosystem's nodes and un-partitioned links as an nx.Graph."""
    graph = nx.Graph()
    graph.add_nodes_from(eco.nodes)
    graph.add_edges_from(
        (a, b) for a, b, _ in eco.all_links()
        if not eco.is_partitioned(a, b)
    )
    return graph


def _random_ecosystem(seed, partitions):
    rng = random.Random(seed)
    eco = Ecosystem(f"random-{seed}")
    names = [f"n{index}" for index in range(12)]
    for name in names:
        eco.add_node(Node(name=name), Tier.CLOUD)
    pairs = [pair for pair in itertools.combinations(names, 2)
             if rng.random() < 0.3]
    for a, b in pairs:
        eco.connect(a, b, EthernetLink(f"{a}-{b}"))
    for a, b in rng.sample(pairs, min(partitions, len(pairs))):
        eco.overlay.add(a, b, None)
    return eco


class TestRoutingAgainstNetworkx:
    def test_every_reference_route_is_the_oracles(self):
        eco = build_reference_ecosystem()
        oracle = _oracle(eco)
        assert nx.is_tree(oracle)  # so every shortest path is unique
        for a, b in itertools.permutations(eco.nodes, 2):
            assert eco.path(a, b) == nx.shortest_path(oracle, a, b)

    @pytest.mark.parametrize("partitions", [0, 4])
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_random_graphs(self, seed, partitions):
        eco = _random_ecosystem(seed, partitions)
        oracle = _oracle(eco)
        unique = 0
        for a, b in itertools.product(eco.nodes, repeat=2):
            if not nx.has_path(oracle, a, b):
                with pytest.raises(PlatformError, match="no path between"):
                    eco.path(a, b)
                continue
            shortest = list(nx.all_shortest_paths(oracle, a, b))
            hops = eco.path(a, b)
            assert len(hops) == len(shortest[0])
            assert hops in shortest
            if len(shortest) == 1:
                assert hops == nx.shortest_path(oracle, a, b)
                unique += 1
        assert unique > 12  # the exact-sequence check was exercised

    def test_links_are_listed_once_in_networkx_edge_order(self):
        names = ["c", "a", "b", "d"]
        pairs = [("b", "a"), ("c", "d"), ("a", "c"), ("a", "b"), ("d", "a")]
        eco = Ecosystem()
        for name in names:
            eco.add_node(Node(name=name), Tier.CLOUD)
        for a, b in pairs:
            eco.connect(a, b, EthernetLink(f"{a}-{b}"))
        oracle = nx.Graph()
        oracle.add_nodes_from(names)
        oracle.add_edges_from(pairs)
        listed = list(eco.all_links())
        assert [(a, b) for a, b, _ in listed] == list(oracle.edges)
        # connecting a pair again replaces its link, in both directions
        assert eco.link_between("a", "b") is eco.link_between("b", "a")
        assert eco.link_between("b", "a").name.startswith("a-b")

    def test_unknown_end_is_no_path(self):
        eco = build_reference_ecosystem()
        for a, b in (("ghost", "power9-0"), ("power9-0", "ghost"),
                     ("ghost", "ghost")):
            with pytest.raises(PlatformError, match="no path between"):
                eco.path(a, b)


class TestEnergyMeter:
    def test_accumulates_by_device_and_category(self):
        meter = EnergyMeter()
        meter.add("fpga0", 2.0, category="compute")
        meter.add("fpga0", 1.0, category="transfer")
        meter.add("cpu0", 3.0)
        assert meter.breakdown() == pytest.approx(
            {"compute": 5.0, "transfer": 1.0})
        assert meter.total_joules == pytest.approx(6.0)

    def test_add_power_integrates(self):
        meter = EnergyMeter()
        meter.add_power("n", watts=10.0, seconds=2.0)
        assert meter.total_joules == pytest.approx(20.0)

    def test_negative_rejected(self):
        meter = EnergyMeter()
        with pytest.raises(ValueError):
            meter.add("n", -1.0)

    def test_merge(self):
        a, b = EnergyMeter(), EnergyMeter()
        a.add("x", 1.0)
        b.add("x", 2.0, category="transfer")
        a.merge(b)
        assert a.total_joules == pytest.approx(3.0)
        assert a.breakdown()["transfer"] == pytest.approx(2.0)
