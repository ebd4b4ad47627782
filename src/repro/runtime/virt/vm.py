"""Virtual machine model."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List

from repro.errors import VirtualizationError
from repro.utils.validation import check_positive


class VMState(enum.Enum):
    """Lifecycle states of a guest."""

    DEFINED = "defined"
    RUNNING = "running"
    STOPPED = "stopped"


@dataclass
class VM:
    """A guest virtual machine."""

    name: str
    vcpus: int
    memory_bytes: int
    arch: str = "x86"
    state: VMState = VMState.DEFINED
    devices: List[str] = field(default_factory=list)

    def __post_init__(self):
        check_positive("vcpus", self.vcpus)
        check_positive("memory_bytes", self.memory_bytes)

    def start(self) -> None:
        """DEFINED/STOPPED → RUNNING."""
        if self.state is VMState.RUNNING:
            raise VirtualizationError(f"VM {self.name!r} already running")
        self.state = VMState.RUNNING

    def stop(self) -> None:
        """Any → STOPPED."""
        self.state = VMState.STOPPED

    def attach_device(self, device: str) -> None:
        """Record a passthrough device assignment."""
        if device in self.devices:
            raise VirtualizationError(
                f"device {device!r} already attached to {self.name!r}"
            )
        self.devices.append(device)

    def detach_device(self, device: str) -> None:
        """Remove a passthrough device assignment."""
        if device not in self.devices:
            raise VirtualizationError(
                f"device {device!r} not attached to {self.name!r}"
            )
        self.devices.remove(device)
