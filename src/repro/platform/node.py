"""Node models for the EVEREST target system (paper Fig. 4).

Three experimental node classes are modeled:

* :class:`Power9Node` — an IBM POWER9 server with one or more
  bus-attached FPGAs reached over a coherent OpenCAPI link;
* :class:`CloudFPGANode` — a stand-alone, network-attached FPGA
  (cloudFPGA style) with no host CPU, reached over datacenter Ethernet;
* :class:`EdgeNode` — an ARM/RISC-V edge gateway with a small FPGA;
* :class:`GPUNode` — an industry-established CPU+GPU node used as a
  baseline.

A node exposes uniform queries (compute time for a kernel descriptor,
data access time, power draw) that the compiler cost model and the
runtime scheduler consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import PlatformError
from repro.platform.fpga import (
    FPGADevice,
    make_edge_fpga,
    make_ku060,
    make_vu9p,
)
from repro.platform.interconnect import (
    Link,
    OpenCAPILink,
    PCIeLink,
)
from repro.platform.memory import MemoryModel, MemoryTechnology
from repro.platform.resources import CPUDescription, GPUDescription
from repro.utils.units import GB

#: Idle draw of a node's GPU (W).
GPU_IDLE_WATTS = 30.0


@dataclass
class Node:
    """A platform node: compute devices, memories and attachment links."""

    name: str
    cpu: Optional[CPUDescription] = None
    gpu: Optional[GPUDescription] = None
    fpgas: List[FPGADevice] = field(default_factory=list)
    memories: Dict[str, MemoryModel] = field(default_factory=dict)
    fpga_links: Dict[str, Link] = field(default_factory=dict)
    arch: str = "x86"

    def add_memory(self, memory: MemoryModel) -> None:
        """Register a node-level memory."""
        if memory.name in self.memories:
            raise PlatformError(
                f"node {self.name!r}: duplicate memory {memory.name!r}"
            )
        self.memories[memory.name] = memory

    def attach_fpga(self, fpga: FPGADevice, link: Link) -> None:
        """Attach an FPGA device over a host link."""
        self.fpgas.append(fpga)
        self.fpga_links[fpga.name] = link

    @property
    def has_fpga(self) -> bool:
        """True if the node has at least one FPGA device."""
        return bool(self.fpgas)

    @property
    def has_coherent_fpga(self) -> bool:
        """True if any FPGA is attached over a coherent link."""
        return any(link.coherent for link in self.fpga_links.values())

    def host_memory(self) -> Optional[MemoryModel]:
        """The node's main (host) memory, if any."""
        for memory in self.memories.values():
            if memory.technology in (
                MemoryTechnology.HOST_DDR,
                MemoryTechnology.DDR4,
            ):
                return memory
        return None

    def idle_watts(self) -> float:
        """Idle power of the whole node."""
        watts = 0.0
        if self.cpu is not None:
            watts += self.cpu.idle_watts
        if self.gpu is not None:
            watts += GPU_IDLE_WATTS
        for fpga in self.fpgas:
            watts += fpga.shell.static_watts
        return watts

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = [f"{self.name} ({self.arch})"]
        if self.cpu:
            parts.append(f"cpu={self.cpu.name}x{self.cpu.cores}")
        if self.gpu:
            parts.append(f"gpu={self.gpu.name}")
        if self.fpgas:
            kinds = "coherent" if self.has_coherent_fpga else "network/pcie"
            parts.append(f"fpgas={len(self.fpgas)}({kinds})")
        return " ".join(parts)


class Power9Node(Node):
    """POWER9 host with coherent bus-attached FPGAs (scale-up node)."""


@dataclass
class CloudFPGANode(Node):
    """Disaggregated network-attached FPGA: no host CPU (scale-out node)."""

    def __post_init__(self):
        if self.cpu is not None:
            raise PlatformError("a cloudFPGA node has no host CPU")


class EdgeNode(Node):
    """ARM/RISC-V edge gateway with a small FPGA."""


class GPUNode(Node):
    """Baseline CPU+GPU server (industry-established node)."""


def build_power9_node(name: str = "power9-0") -> Power9Node:
    """A POWER9 node with one coherent bus-attached VU9P card of two
    role slots."""
    node = Power9Node(
        name=name,
        cpu=CPUDescription(
            name="POWER9",
            cores=16,
            frequency_hz=3.1e9,
            flops_per_cycle=8.0,
            tdp_watts=190.0,
            idle_watts=60.0,
        ),
        arch="ppc64le",
    )
    node.add_memory(
        MemoryModel(
            name=f"{name}/host-ddr",
            technology=MemoryTechnology.HOST_DDR,
            capacity_bytes=512 * GB,
            channels=8,
        )
    )
    card_memory = MemoryModel(
        name=f"{name}/fpga0-ddr",
        technology=MemoryTechnology.DDR4,
        capacity_bytes=64 * GB,
        channels=2,
    )
    fpga = make_vu9p(
        f"{name}/fpga0", memories=[card_memory], role_slots=2,
    )
    node.attach_fpga(fpga, OpenCAPILink(f"{name}/capi0"))
    return node


def build_cloudfpga_node(name: str = "cloudfpga-0") -> CloudFPGANode:
    """A stand-alone network-attached cloudFPGA module."""
    card_memory = MemoryModel(
        name=f"{name}/ddr",
        technology=MemoryTechnology.DDR4,
        capacity_bytes=8 * GB,
        channels=2,
    )
    node = CloudFPGANode(
        name=name,
        cpu=None,
        arch="fpga",
    )
    node.fpgas.append(make_ku060(f"{name}/fpga", memories=[card_memory]))
    node.memories[card_memory.name] = card_memory
    return node


def build_edge_node(name: str = "edge-0", arch: str = "arm") -> EdgeNode:
    """An edge gateway: 4-core ARM or RISC-V SoC plus a small FPGA."""
    if arch not in ("arm", "riscv"):
        raise PlatformError(f"edge arch must be arm or riscv, got {arch!r}")
    frequency = 1.5e9 if arch == "arm" else 1.2e9
    node = EdgeNode(
        name=name,
        cpu=CPUDescription(
            name=arch.upper(),
            cores=4,
            frequency_hz=frequency,
            flops_per_cycle=2.0,
            tdp_watts=8.0,
            idle_watts=1.5,
        ),
        arch=arch,
    )
    node.add_memory(
        MemoryModel(
            name=f"{name}/lpddr",
            technology=MemoryTechnology.DDR4,
            capacity_bytes=4 * GB,
            channels=1,
            bandwidth_per_channel=12.8e9,
        )
    )
    fpga = make_edge_fpga(f"{name}/fpga")
    node.attach_fpga(fpga, PCIeLink(f"{name}/axi", lanes=4))
    return node


def build_gpu_node(name: str = "gpu-0") -> GPUNode:
    """A baseline x86 + datacenter-GPU node."""
    node = GPUNode(
        name=name,
        cpu=CPUDescription(
            name="x86-server",
            cores=24,
            frequency_hz=2.8e9,
            flops_per_cycle=16.0,
            tdp_watts=205.0,
            idle_watts=55.0,
        ),
        gpu=GPUDescription(
            name="dc-gpu",
            peak_flops=14e12,
            memory_bandwidth=900e9,
            tdp_watts=300.0,
        ),
        arch="x86",
    )
    node.add_memory(
        MemoryModel(
            name=f"{name}/host-ddr",
            technology=MemoryTechnology.HOST_DDR,
            capacity_bytes=256 * GB,
            channels=6,
        )
    )
    return node
