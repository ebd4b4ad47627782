"""Hypervisor: VM lifecycle and resource admission on one node.

Models the host-side extensions of Fig. 2: guests get vCPUs and memory
from the node envelope (with a configurable overcommit ratio for
vCPUs, none for memory).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import VirtualizationError
from repro.platform.node import Node
from repro.runtime.virt.vm import VM, VMState

#: Fixed hypervisor reserve of host memory.
_HOST_RESERVE_FRACTION = 0.05
#: vCPUs admitted per physical core.
_VCPU_OVERCOMMIT = 2


class Hypervisor:
    """One hypervisor instance managing a node's guests."""

    def __init__(self, node: Node):
        if node.cpu is None:
            raise VirtualizationError(
                f"node {node.name!r} has no CPU to virtualize"
            )
        self.node = node
        self.vms: Dict[str, VM] = {}

    # ------------------------------------------------------------------

    @property
    def vcpu_capacity(self) -> int:
        """Total vCPUs the admission control allows."""
        return self.node.cpu.cores * _VCPU_OVERCOMMIT

    @property
    def vcpus_committed(self) -> int:
        """vCPUs assigned to non-stopped guests."""
        return sum(
            vm.vcpus for vm in self.vms.values()
            if vm.state is not VMState.STOPPED
        )

    @property
    def memory_capacity(self) -> int:
        """Guest-assignable host memory in bytes."""
        host = self.node.host_memory()
        if host is None:
            raise VirtualizationError(
                f"node {self.node.name!r} has no host memory"
            )
        return int(host.capacity_bytes * (1 - _HOST_RESERVE_FRACTION))

    @property
    def memory_committed(self) -> int:
        """Bytes promised to non-stopped guests."""
        return sum(
            vm.memory_bytes for vm in self.vms.values()
            if vm.state is not VMState.STOPPED
        )

    # ------------------------------------------------------------------

    def create_vm(self, name: str, vcpus: int, memory_bytes: int) -> VM:
        """Define and admit a guest; raises when over capacity."""
        if name in self.vms:
            raise VirtualizationError(f"duplicate VM name {name!r}")
        if self.vcpus_committed + vcpus > self.vcpu_capacity:
            raise VirtualizationError(
                f"node {self.node.name!r}: vCPU admission failed "
                f"({self.vcpus_committed}+{vcpus} > "
                f"{self.vcpu_capacity})"
            )
        if self.memory_committed + memory_bytes > self.memory_capacity:
            raise VirtualizationError(
                f"node {self.node.name!r}: memory admission failed"
            )
        vm = VM(
            name=name,
            vcpus=vcpus,
            memory_bytes=memory_bytes,
            arch=self.node.arch,
        )
        self.vms[name] = vm
        return vm
