"""Link degradation and partition overlay on the ecosystem topology."""

import pytest

from repro.errors import PlatformError
from repro.platform.topology import build_reference_ecosystem


@pytest.fixture
def eco():
    return build_reference_ecosystem()


class TestDegradation:
    def test_degradation_slows_transfer(self, eco):
        size = 10**8
        clean = eco.transfer_time("power9-0", "gpu-0", size)
        eco.degrade_link("dc-switch", "power9-0",
                         bandwidth_factor=0.25)
        degraded = eco.transfer_time("power9-0", "gpu-0", size)
        assert degraded > clean * 2
        eco.restore_link("dc-switch", "power9-0")
        assert eco.transfer_time("power9-0", "gpu-0", size) == clean

    def test_latency_add_applies_per_hop(self, eco):
        clean = eco.transfer_time("power9-0", "gpu-0", 1000)
        eco.degrade_link("dc-switch", "power9-0", latency_add_s=0.2)
        assert eco.transfer_time("power9-0", "gpu-0", 1000) == \
            pytest.approx(clean + 0.2, rel=1e-6)

    def test_pair_order_is_irrelevant(self, eco):
        eco.degrade_link("power9-0", "dc-switch", bandwidth_factor=0.5)
        assert eco.link_state("dc-switch", "power9-0") == (0.5, 0.0)
        eco.restore_link("dc-switch", "power9-0")
        assert eco.link_state("power9-0", "dc-switch") == (1.0, 0.0)

    def test_bottleneck_bandwidth_sees_degradation(self, eco):
        before = eco.bottleneck_bandwidth("power9-0", "gpu-0")
        eco.degrade_link("dc-switch", "gpu-0", bandwidth_factor=0.1)
        assert eco.bottleneck_bandwidth("power9-0", "gpu-0") == \
            pytest.approx(before * 0.1)

    def test_invalid_factor_rejected(self, eco):
        with pytest.raises(PlatformError, match="bandwidth_factor"):
            eco.degrade_link("dc-switch", "power9-0",
                             bandwidth_factor=0.0)
        with pytest.raises(PlatformError, match="bandwidth_factor"):
            eco.degrade_link("dc-switch", "power9-0",
                             bandwidth_factor=1.2)
        with pytest.raises(PlatformError, match="latency_add_s"):
            eco.degrade_link("dc-switch", "power9-0",
                             latency_add_s=-0.1)

    def test_unknown_edge_rejected(self, eco):
        with pytest.raises(PlatformError, match="no direct link"):
            eco.degrade_link("power9-0", "gpu-0",
                             bandwidth_factor=0.5)


class TestPartition:
    def test_partition_removes_only_route(self, eco):
        # power9-0 hangs off the switch by a single link
        eco.partition_link("dc-switch", "power9-0")
        assert eco.is_partitioned("power9-0", "dc-switch")
        with pytest.raises(PlatformError, match="no path"):
            eco.path("power9-0", "gpu-0")
        with pytest.raises(PlatformError, match="no path"):
            eco.transfer_time("power9-0", "gpu-0", 1000)

    def test_heal_restores_route(self, eco):
        clean = eco.transfer_time("power9-0", "gpu-0", 1000)
        eco.partition_link("dc-switch", "power9-0")
        eco.restore_link("dc-switch", "power9-0")
        assert not eco.is_partitioned("dc-switch", "power9-0")
        assert eco.transfer_time("power9-0", "gpu-0", 1000) == clean

    def test_unaffected_routes_keep_working(self, eco):
        clean = eco.transfer_time("edge-0", "dc-switch", 1000)
        eco.partition_link("dc-switch", "power9-0")
        assert eco.transfer_time("edge-0", "dc-switch", 1000) == clean

    def test_underlying_graph_is_untouched(self, eco):
        links_before = list(eco.all_links())
        eco.partition_link("dc-switch", "power9-0")
        assert list(eco.all_links()) == links_before
