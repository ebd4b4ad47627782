"""vFPGA management: multiplexing FPGA role slots among VMs.

Models vFPGAmanager [33]: each role slot of a node's FPGAs can be
leased to exactly one VM; the shell (privileged region) stays under
host control, so guests can only reach their own role — attempts to
touch another VM's role raise :class:`SecurityError`. Reconfigurations
are accounted with the platform model's timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import SecurityError, VirtualizationError
from repro.obs import current_metrics
from repro.platform.fpga import Bitstream, FPGADevice, Role
from repro.platform.node import Node
from repro.runtime.virt.vm import VM


@dataclass
class RoleLease:
    """One role slot leased to one VM."""

    role: Role
    device: FPGADevice
    vm_name: str
    bitstream_name: str


class VFPGAManager:
    """Host-side broker of a node's FPGA role slots."""

    def __init__(self, node: Node):
        if not node.fpgas:
            raise VirtualizationError(
                f"node {node.name!r} has no FPGA devices"
            )
        self.node = node
        self.leases: Dict[str, RoleLease] = {}  # role name -> lease
        self.total_reconfig_seconds = 0.0

    # ------------------------------------------------------------------

    def free_slots(self) -> List[Tuple[FPGADevice, Role]]:
        """Unleased role slots across the node's devices."""
        result = []
        for device in self.node.fpgas:
            for role in device.roles:
                if role.name not in self.leases:
                    result.append((device, role))
        return result

    # ------------------------------------------------------------------

    def allocate(self, vm: VM, bitstream: Bitstream) -> RoleLease:
        """Lease a free slot to the VM and load the bitstream.

        Returns the lease; reconfiguration time is accumulated in
        ``total_reconfig_seconds``.
        """
        for device, role in self.free_slots():
            if role.can_host(bitstream):
                device.load(bitstream, role)
                self.total_reconfig_seconds += (
                    device.reconfiguration_time(bitstream)
                )
                lease = RoleLease(
                    role=role,
                    device=device,
                    vm_name=vm.name,
                    bitstream_name=bitstream.name,
                )
                self.leases[role.name] = lease
                vm.attach_device(role.name)
                current_metrics().counter(
                    "vfpga.leases", "role slots leased to VMs",
                ).inc(node=self.node.name)
                return lease
        raise VirtualizationError(
            f"no free role slot fits bitstream {bitstream.name!r} on "
            f"node {self.node.name!r}"
        )

    def reconfigure(self, vm: VM, lease: RoleLease,
                    bitstream: Bitstream) -> None:
        """Swap the bitstream in a lease the VM already holds."""
        self._check_owner(vm, lease)
        lease.device.unload(lease.role)
        lease.device.load(bitstream, lease.role)
        self.total_reconfig_seconds += (
            lease.device.reconfiguration_time(bitstream)
        )
        lease.bitstream_name = bitstream.name
        current_metrics().counter(
            "vfpga.reconfigurations", "leased-role bitstream swaps",
        ).inc(node=self.node.name)

    def release(self, vm: VM, lease: RoleLease) -> None:
        """Return a leased slot."""
        self._check_owner(vm, lease)
        lease.device.unload(lease.role)
        del self.leases[lease.role.name]
        vm.detach_device(lease.role.name)

    def access(self, vm: VM, role_name: str) -> RoleLease:
        """Guest access check: the shell isolates foreign roles."""
        lease = self.leases.get(role_name)
        if lease is None:
            raise VirtualizationError(
                f"role {role_name!r} is not leased"
            )
        if lease.vm_name != vm.name:
            raise SecurityError(
                f"VM {vm.name!r} attempted to access role "
                f"{role_name!r} owned by {lease.vm_name!r}"
            )
        return lease

    def _check_owner(self, vm: VM, lease: RoleLease) -> None:
        if lease.vm_name != vm.name:
            raise SecurityError(
                f"VM {vm.name!r} does not own role {lease.role.name!r}"
            )
