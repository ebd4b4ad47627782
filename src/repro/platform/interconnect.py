"""Interconnect models: OpenCAPI coherent links, PCIe, and TCP/UDP Ethernet.

Paper Fig. 4 shows the two attachment styles EVEREST studies:

* **bus-attached FPGAs** reached over a cache-coherent OpenCAPI link —
  low latency, no software network stack, shared address space;
* **network-attached FPGAs** (cloudFPGA) reached over datacenter
  Ethernet with TCP or UDP framing — higher latency and per-message
  overhead, but scale-out to arbitrarily many devices.

Each link computes transfer time and energy for a payload; the DES layer
adds queueing when links are contended.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_non_negative, check_positive


@dataclass
class Link:
    """A point-to-point interconnect with latency/bandwidth/energy.

    ``per_message_overhead`` models protocol processing (e.g. TCP stack
    traversal) paid once per transfer regardless of size.
    """

    name: str
    latency_s: float
    bandwidth: float  # bytes/second
    per_message_overhead: float = 0.0
    energy_pj_per_byte: float = 10.0
    coherent: bool = False

    def __post_init__(self):
        check_non_negative("latency_s", self.latency_s)
        check_positive("bandwidth", self.bandwidth)
        check_non_negative("per_message_overhead", self.per_message_overhead)

    def transfer_time(self, num_bytes: int) -> float:
        """Seconds to move ``num_bytes`` across the link (one message)."""
        check_non_negative("num_bytes", num_bytes)
        return (
            self.latency_s
            + self.per_message_overhead
            + num_bytes / self.bandwidth
        )

    def transfer_energy(self, num_bytes: int) -> float:
        """Joules for the transfer."""
        check_non_negative("num_bytes", num_bytes)
        return num_bytes * self.energy_pj_per_byte * 1e-12


def OpenCAPILink(name: str = "opencapi") -> Link:
    """Cache-coherent OpenCAPI 3.0 link (25 GB/s class, sub-µs latency).

    Coherence means the accelerator sees host memory directly: no
    explicit staging copies and negligible per-message software cost.
    """
    return Link(
        name=name,
        latency_s=0.75e-6,
        bandwidth=22e9,
        per_message_overhead=0.2e-6,
        energy_pj_per_byte=5.0,
        coherent=True,
    )


def PCIeLink(name: str = "pcie-gen4-x16", lanes: int = 16) -> Link:
    """A PCIe Gen4 link; non-coherent, DMA-style transfers."""
    check_positive("lanes", lanes)
    return Link(
        name=name,
        latency_s=1.0e-6,
        bandwidth=lanes * 1.9e9,
        per_message_overhead=2.0e-6,
        energy_pj_per_byte=8.0,
        coherent=False,
    )


def EthernetLink(
    name: str = "dc-ethernet",
    gbps: float = 100.0,
    protocol: str = "tcp",
) -> Link:
    """Datacenter Ethernet carrying TCP or UDP (cloudFPGA attachment).

    TCP pays a larger per-message overhead (stack, acks) than UDP; UDP
    is what the cloudFPGA shell terminates in hardware.
    """
    check_positive("gbps", gbps)
    if protocol not in ("tcp", "udp"):
        raise ValueError(f"protocol must be 'tcp' or 'udp', got {protocol!r}")
    overhead = 25e-6 if protocol == "tcp" else 3e-6
    return Link(
        name=f"{name}-{protocol}",
        latency_s=10e-6,
        bandwidth=gbps * 1e9 / 8 * 0.94,  # 94% goodput after framing
        per_message_overhead=overhead,
        energy_pj_per_byte=30.0,
        coherent=False,
    )


def EdgeUplink(name: str = "edge-uplink", mbps: float = 100.0) -> Link:
    """WAN uplink from an end-point/edge site to the cloud."""
    check_positive("mbps", mbps)
    return Link(
        name=name,
        latency_s=15e-3,
        bandwidth=mbps * 1e6 / 8,
        per_message_overhead=100e-6,
        energy_pj_per_byte=200.0,
        coherent=False,
    )


def SensorLink(name: str = "sensor-link", kbps: float = 250.0) -> Link:
    """Low-power link from an end-point sensor to its edge gateway."""
    check_positive("kbps", kbps)
    return Link(
        name=name,
        latency_s=5e-3,
        bandwidth=kbps * 1e3 / 8,
        per_message_overhead=1e-3,
        energy_pj_per_byte=5000.0,
        coherent=False,
    )
