"""Link degradation and partition overlay on the ecosystem topology."""

import pytest

from repro.chaos import ChaosSchedule, LinkFault
from repro.errors import PlatformError
from repro.platform.topology import build_reference_ecosystem
from repro.workflow.graph import DataObject, TaskGraph, WorkflowTask
from repro.workflow.recovery import ResilientServer
from repro.workflow.worker import Worker


@pytest.fixture
def eco():
    return build_reference_ecosystem()


class TestDegradation:
    def test_degradation_slows_transfer(self, eco):
        size = 10**8
        clean = eco.transfer_time("power9-0", "gpu-0", size)
        eco.overlay.add("dc-switch", "power9-0", (0.25, 0.0))
        degraded = eco.transfer_time("power9-0", "gpu-0", size)
        assert degraded > clean * 2
        eco.overlay.remove("dc-switch", "power9-0", (0.25, 0.0))
        assert eco.transfer_time("power9-0", "gpu-0", size) == clean

    def test_latency_add_applies_per_hop(self, eco):
        clean = eco.transfer_time("power9-0", "gpu-0", 1000)
        eco.overlay.add("dc-switch", "power9-0", (1.0, 0.2))
        assert eco.transfer_time("power9-0", "gpu-0", 1000) == \
            pytest.approx(clean + 0.2, rel=1e-6)

    def test_pair_order_is_irrelevant(self, eco):
        eco.overlay.add("power9-0", "dc-switch", (0.5, 0.0))
        assert eco.overlay.state("dc-switch", "power9-0") == (0.5, 0.0)
        eco.overlay.remove("dc-switch", "power9-0", (0.5, 0.0))
        assert eco.overlay.state("power9-0", "dc-switch") == (1.0, 0.0)

    def test_invalid_factor_rejected(self, eco):
        with pytest.raises(PlatformError, match="bandwidth_factor"):
            eco.overlay.add("dc-switch", "power9-0", (0.0, 0.0))
        with pytest.raises(PlatformError, match="bandwidth_factor"):
            eco.overlay.add("dc-switch", "power9-0", (1.2, 0.0))
        with pytest.raises(PlatformError, match="latency_add_s"):
            eco.overlay.add("dc-switch", "power9-0", (1.0, -0.1))

    def test_unknown_edge_rejected(self, eco):
        server = ResilientServer(
            [Worker("w0", node_name="power9-0")], ecosystem=eco)
        graph = TaskGraph("g")
        graph.add_task(WorkflowTask("t", outputs=["o"]))
        with pytest.raises(PlatformError, match="no direct link"):
            server.run(graph, chaos=ChaosSchedule(0, [LinkFault(
                "power9-0", "gpu-0", at_time=0.0, duration_s=1.0,
                bandwidth_factor=0.5,
            )]))


class TestPartition:
    def test_partition_removes_only_route(self, eco):
        # power9-0 hangs off the switch by a single link
        eco.overlay.add("dc-switch", "power9-0", None)
        assert eco.is_partitioned("power9-0", "dc-switch")
        with pytest.raises(PlatformError, match="no path"):
            eco.path("power9-0", "gpu-0")
        with pytest.raises(PlatformError, match="no path"):
            eco.transfer_time("power9-0", "gpu-0", 1000)

    def test_heal_restores_route(self, eco):
        clean = eco.transfer_time("power9-0", "gpu-0", 1000)
        eco.overlay.add("dc-switch", "power9-0", None)
        eco.overlay.remove("dc-switch", "power9-0", None)
        assert not eco.is_partitioned("dc-switch", "power9-0")
        assert eco.transfer_time("power9-0", "gpu-0", 1000) == clean

    def test_unaffected_routes_keep_working(self, eco):
        clean = eco.transfer_time("edge-0", "dc-switch", 1000)
        eco.overlay.add("dc-switch", "power9-0", None)
        assert eco.transfer_time("edge-0", "dc-switch", 1000) == clean

    def test_underlying_graph_is_untouched(self, eco):
        links_before = list(eco.all_links())
        eco.overlay.add("dc-switch", "power9-0", None)
        assert list(eco.all_links()) == links_before


class TestOverlappingFaults:
    """Each heal ends its own fault; the others on the pair stay."""

    def test_overlay_heals_one_fault_at_a_time(self, eco):
        eco.overlay.add("dc-switch", "power9-0", None)
        eco.overlay.add("power9-0", "dc-switch", None)
        eco.overlay.remove("dc-switch", "power9-0", None)
        assert eco.is_partitioned("dc-switch", "power9-0")
        eco.overlay.remove("dc-switch", "power9-0", None)
        assert not eco.is_partitioned("dc-switch", "power9-0")

        eco.overlay.add("dc-switch", "power9-0", (0.5, 0.1))
        eco.overlay.add("dc-switch", "power9-0", (0.25, 0.0))
        assert eco.overlay.state("dc-switch", "power9-0") == (0.125, 0.1)
        eco.overlay.remove("dc-switch", "power9-0", (0.5, 0.1))
        assert eco.overlay.state("dc-switch", "power9-0") == (0.25, 0.0)

    @staticmethod
    def _makespan(*faults):
        """t1 needs 4 cpus (only w1 on power9-0 has them) and stages
        ``in`` from edge-0 over the dc-switch<->power9-0 link once t0
        ends at t = 2 s."""
        eco = build_reference_ecosystem()
        workers = [
            Worker("w0", node_name="edge-0", cpus=1),
            Worker("w1", node_name="power9-0", cpus=4),
        ]
        graph = TaskGraph("overlap")
        graph.add_object(DataObject(
            "seed", size_bytes=8, locality="power9-0"))
        graph.add_object(DataObject(
            "in", size_bytes=10**8, locality="edge-0"))
        graph.add_task(WorkflowTask(
            "t0", inputs=["seed"], outputs=["mid"], duration_s=2.0))
        graph.add_task(WorkflowTask(
            "t1", inputs=["mid", "in"], outputs=["out"],
            duration_s=0.5, cpus=4,
        ))
        trace, stats = ResilientServer(workers, ecosystem=eco).run(
            graph, chaos=ChaosSchedule(0, list(faults)))
        assert stats.link_faults == len(faults)
        assert not eco.is_partitioned("dc-switch", "power9-0")
        assert eco.overlay.state("dc-switch", "power9-0") == (1.0, 0.0)
        return trace.makespan

    @pytest.mark.parametrize("fault", [
        {"partition": True},
        {"bandwidth_factor": 0.25},
    ], ids=["partition", "degradation"])
    def test_first_heal_leaves_the_longer_fault_in_force(self, fault):
        short = LinkFault("dc-switch", "power9-0", at_time=0.0,
                          duration_s=1.0, **fault)
        long = LinkFault("power9-0", "dc-switch", at_time=0.0,
                         duration_s=50.0 if "bandwidth_factor" in fault
                         else 5.0, **fault)
        alone = self._makespan(long)
        assert alone > self._makespan()
        # the short fault heals at t = 1 s, before t1 stages its input
        assert self._makespan(short, long) == alone
