"""Tests for links and the shell-role FPGA device model."""

import pytest

from repro.errors import CapacityError, PlatformError
from repro.platform.fpga import (
    Bitstream,
    FPGADevice,
    Shell,
    make_edge_fpga,
    make_ku060,
    make_vu9p,
)
from repro.platform.interconnect import (
    EdgeUplink,
    EthernetLink,
    OpenCAPILink,
    PCIeLink,
    SensorLink,
)
from repro.platform.resources import FPGAResources


class TestLinks:
    def test_opencapi_is_coherent(self):
        assert OpenCAPILink().coherent

    def test_ethernet_is_not_coherent(self):
        assert not EthernetLink().coherent

    def test_tcp_overhead_exceeds_udp(self):
        tcp = EthernetLink(protocol="tcp")
        udp = EthernetLink(protocol="udp")
        assert tcp.transfer_time(64) > udp.transfer_time(64)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            EthernetLink(protocol="sctp")

    def test_transfer_time_monotone_in_size(self):
        link = PCIeLink()
        assert link.transfer_time(10**6) < link.transfer_time(10**8)

    def test_opencapi_latency_below_ethernet(self):
        assert OpenCAPILink().transfer_time(64) < \
            EthernetLink().transfer_time(64)

    def test_transfer_time_is_fixed_cost_plus_serialisation(self):
        link = EthernetLink(protocol="tcp")
        fixed = link.latency_s + link.per_message_overhead
        assert link.transfer_time(0) == pytest.approx(fixed)
        assert link.transfer_time(10**6) == pytest.approx(
            fixed + 10**6 / link.bandwidth
        )

    def test_sensor_link_is_slowest(self):
        assert SensorLink().bandwidth < EdgeUplink().bandwidth


class TestFPGADevice:
    def test_shell_subtracted_from_capacity(self):
        device = make_vu9p("d")
        user = device.user_capacity
        assert user.luts < device.capacity.luts

    def test_shell_too_large_rejected(self):
        with pytest.raises(CapacityError):
            FPGADevice(
                "tiny",
                capacity=FPGAResources(luts=10, ffs=10),
                shell=Shell(footprint=FPGAResources(luts=100, ffs=100)),
            )

    def test_role_slots_partition_evenly(self):
        device = make_vu9p("d", role_slots=2)
        assert len(device.roles) == 2
        assert device.roles[0].capacity == device.roles[1].capacity

    def _small_bitstream(self) -> Bitstream:
        return Bitstream(
            name="k", footprint=FPGAResources(luts=1000, ffs=1000),
            clock_hz=200e6,
        )

    def test_load_and_find(self):
        device = make_ku060("d")
        role = device.load(self._small_bitstream())
        assert role in device.roles and role.loaded.name == "k"
        assert role.reconfigurations == 1

    def test_load_too_big_rejected(self):
        device = make_edge_fpga("d")
        huge = Bitstream(
            name="huge",
            footprint=FPGAResources(luts=10**7, ffs=10**7),
            clock_hz=100e6,
        )
        with pytest.raises(CapacityError):
            device.load(huge)

    def test_all_slots_full_rejected(self):
        device = make_ku060("d")  # one role slot
        device.load(self._small_bitstream())
        with pytest.raises(PlatformError):
            device.load(Bitstream(
                name="k2", footprint=FPGAResources(luts=10, ffs=10),
                clock_hz=100e6,
            ))

    def test_unload_frees_slot(self):
        device = make_ku060("d")
        role = device.load(self._small_bitstream())
        device.unload(role)
        assert device.free_role() is role

    def test_busy_role_cannot_reconfigure(self):
        device = make_ku060("d")
        role = device.load(self._small_bitstream())
        role.busy = True
        with pytest.raises(PlatformError):
            device.unload(role)

    def test_reconfiguration_time_partial_faster_than_full(self):
        device = make_ku060("d")
        partial = Bitstream("p", FPGAResources(luts=10), 1e8,
                            partial=True)
        full = Bitstream("f", FPGAResources(luts=10), 1e8, partial=False)
        assert device.reconfiguration_time(partial) < \
            device.reconfiguration_time(full)
