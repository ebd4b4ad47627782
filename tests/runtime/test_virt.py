"""Tests for the virtualization layer."""

import pytest

from repro.errors import SecurityError, VirtualizationError
from repro.platform.fpga import Bitstream
from repro.platform.interconnect import EthernetLink
from repro.platform.node import build_cloudfpga_node, build_power9_node
from repro.platform.resources import FPGAResources
from repro.runtime.virt import (
    APIRemoting,
    Hypervisor,
    RemotingMode,
    VFPGAManager,
    VM,
    VMState,
)
from repro.utils.units import GB


def small_bitstream(name="k"):
    return Bitstream(
        name=name, footprint=FPGAResources(luts=5000, ffs=5000),
        clock_hz=200e6,
    )


class TestVM:
    def test_lifecycle(self):
        vm = VM("v", vcpus=2, memory_bytes=GB)
        vm.start()
        assert vm.state is VMState.RUNNING
        vm.stop()
        assert vm.state is VMState.STOPPED

    def test_double_start_rejected(self):
        vm = VM("v", vcpus=1, memory_bytes=GB)
        vm.start()
        with pytest.raises(VirtualizationError):
            vm.start()

    def test_stopped_guest_restarts(self):
        vm = VM("v", vcpus=1, memory_bytes=GB)
        vm.start()
        vm.stop()
        vm.start()
        assert vm.state is VMState.RUNNING

    def test_device_attach_detach(self):
        vm = VM("v", vcpus=1, memory_bytes=GB)
        vm.attach_device("role0")
        with pytest.raises(VirtualizationError):
            vm.attach_device("role0")
        vm.detach_device("role0")
        with pytest.raises(VirtualizationError):
            vm.detach_device("role0")


class TestHypervisor:
    def test_admission_control_vcpus(self):
        hyper = Hypervisor(build_power9_node())
        hyper.create_vm("a", vcpus=32, memory_bytes=GB)
        with pytest.raises(VirtualizationError, match="vCPU"):
            hyper.create_vm("b", vcpus=1, memory_bytes=GB)

    def test_admission_control_memory(self):
        hyper = Hypervisor(build_power9_node())
        with pytest.raises(VirtualizationError, match="memory"):
            hyper.create_vm("a", vcpus=1, memory_bytes=600 * GB)

    def test_overcommit_allows_more_vcpus(self):
        hyper = Hypervisor(build_power9_node())
        hyper.create_vm("a", vcpus=16, memory_bytes=GB)
        hyper.create_vm("b", vcpus=16, memory_bytes=GB)
        assert hyper.vcpus_committed == 32

    def test_duplicate_name_rejected(self):
        hyper = Hypervisor(build_power9_node())
        hyper.create_vm("a", vcpus=1, memory_bytes=GB)
        with pytest.raises(VirtualizationError):
            hyper.create_vm("a", vcpus=1, memory_bytes=GB)

    def test_cloudfpga_node_not_virtualizable(self):
        with pytest.raises(VirtualizationError):
            Hypervisor(build_cloudfpga_node())

    def test_stopped_vm_frees_capacity(self):
        hyper = Hypervisor(build_power9_node())
        vm = hyper.create_vm("a", vcpus=32, memory_bytes=GB)
        vm.stop()
        hyper.create_vm("b", vcpus=8, memory_bytes=GB)


class TestVFPGAManager:
    def setup_method(self):
        self.node = build_power9_node()
        self.manager = VFPGAManager(self.node)
        self.vm_a = VM("a", vcpus=1, memory_bytes=GB)
        self.vm_b = VM("b", vcpus=1, memory_bytes=GB)

    def test_allocate_leases_slot(self):
        lease = self.manager.allocate(self.vm_a, small_bitstream())
        assert lease.vm_name == "a"
        assert list(self.manager.leases) == [lease.role.name]
        assert lease.role.name in self.vm_a.devices

    def test_isolation_between_vms(self):
        lease = self.manager.allocate(self.vm_a, small_bitstream())
        with pytest.raises(SecurityError):
            self.manager.access(self.vm_b, lease.role.name)
        assert self.manager.access(self.vm_a, lease.role.name) is lease

    def test_foreign_release_rejected(self):
        lease = self.manager.allocate(self.vm_a, small_bitstream())
        with pytest.raises(SecurityError):
            self.manager.release(self.vm_b, lease)

    def test_release_frees_slot(self):
        lease = self.manager.allocate(self.vm_a, small_bitstream())
        self.manager.release(self.vm_a, lease)
        assert not self.manager.leases
        assert not self.vm_a.devices

    def test_exhaustion(self):
        self.manager.allocate(self.vm_a, small_bitstream("k1"))
        self.manager.allocate(self.vm_b, small_bitstream("k2"))
        with pytest.raises(VirtualizationError, match="no free role"):
            self.manager.allocate(self.vm_a, small_bitstream("k3"))

    def test_reconfigure_swaps_bitstream(self):
        lease = self.manager.allocate(self.vm_a, small_bitstream("k1"))
        before = self.manager.total_reconfig_seconds
        self.manager.reconfigure(self.vm_a, lease,
                                 small_bitstream("k2"))
        assert lease.bitstream_name == "k2"
        assert self.manager.total_reconfig_seconds > before

    def test_node_without_fpga_rejected(self):
        from repro.platform.node import build_gpu_node

        with pytest.raises(VirtualizationError):
            VFPGAManager(build_gpu_node())


class TestAPIRemoting:
    def test_passthrough_cheapest(self):
        passthrough = APIRemoting(RemotingMode.PASSTHROUGH)
        virtio = APIRemoting(RemotingMode.VIRTIO)
        remote = APIRemoting(RemotingMode.REMOTE, link=EthernetLink())
        payload = 64 * 1024
        assert passthrough.invocation_overhead(payload) < \
            virtio.invocation_overhead(payload) < \
            remote.invocation_overhead(payload)

    def test_remote_requires_link(self):
        with pytest.raises(VirtualizationError):
            APIRemoting(RemotingMode.REMOTE)

    def test_call_accounting(self):
        channel = APIRemoting(RemotingMode.VIRTIO)
        channel.call(1000)
        channel.call(3000)
        assert channel.calls == 2
        assert channel.bytes_forwarded == 4000
        assert channel.overhead_seconds > 0

    def test_virtio_scales_with_payload(self):
        channel = APIRemoting(RemotingMode.VIRTIO)
        assert channel.invocation_overhead(10**7) > \
            channel.invocation_overhead(10**3)
