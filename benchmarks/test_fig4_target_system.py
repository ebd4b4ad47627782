"""Experiment fig4 — the EVEREST featured system (paper Fig. 4).

The figure combines a POWER9 host with coherent bus-attached FPGAs
(OpenCAPI) and disaggregated network-attached FPGAs (cloudFPGA over
TCP/UDP). Claims examined:

* bus-attached wins per-invocation latency (coherent, sub-us link);
* network-attached wins scale-out: a host takes at most a few cards,
  but stand-alone FPGAs can be added "independently of the number of
  CPU servers";
* UDP (terminated by the shell) beats TCP for the streaming path;
* the crossover: past the host's card limit, aggregate scale-out
  throughput overtakes scale-up.

The workload is a streaming accelerator invocation: 1 MiB in, fixed
0.5 ms of compute, 100 KiB out.
"""

from __future__ import annotations

from repro.platform.fpga import Bitstream
from repro.platform.interconnect import EthernetLink, OpenCAPILink
from repro.platform.node import build_cloudfpga_node
from repro.platform.resources import FPGAResources
from repro.platform.simulator import Simulator
from repro.utils.tables import Table
from repro.utils.units import KB, MB

BATCH_IN = 1 * MB
BATCH_OUT = 100 * KB
COMPUTE_S = 0.5e-3
MAX_HOST_CARDS = 4  # slots in one POWER9 chassis


def batch_latency(link) -> float:
    """One invocation: payload in, compute, result back."""
    return (
        link.transfer_time(BATCH_IN)
        + COMPUTE_S
        + link.transfer_time(BATCH_OUT)
    )


def pipelined_throughput(link, devices: int) -> float:
    """Batches/s with transfer/compute overlap across devices."""
    per_device_interval = max(
        link.transfer_time(BATCH_IN), COMPUTE_S,
        link.transfer_time(BATCH_OUT),
    )
    return devices / per_device_interval


def batch_energy(link, fpga_watts: float = 25.0) -> float:
    """Joules per invocation."""
    return (
        link.transfer_energy(BATCH_IN + BATCH_OUT)
        + fpga_watts * COMPUTE_S
    )


def test_fig4_attachment_styles(benchmark):
    capi = OpenCAPILink()
    udp = EthernetLink(gbps=10.0, protocol="udp")
    tcp = EthernetLink(gbps=10.0, protocol="tcp")

    table = Table(
        "fig4: attachment styles (1 MiB in / 0.5 ms compute / "
        "100 KiB out)",
        ["attachment", "coherent", "latency ms", "throughput /s/dev",
         "energy mJ"],
    )
    rows = {}
    for name, link in (("bus (OpenCAPI)", capi),
                       ("network (UDP)", udp),
                       ("network (TCP)", tcp)):
        latency = batch_latency(link)
        throughput = pipelined_throughput(link, 1)
        energy = batch_energy(link)
        rows[name] = (latency, throughput, energy)
        table.add_row(
            name, link.coherent, latency * 1e3, throughput,
            energy * 1e3,
        )
    table.show()

    # bus-attached has the lowest single-invocation latency
    assert rows["bus (OpenCAPI)"][0] < rows["network (UDP)"][0]
    # UDP (shell-terminated) beats TCP
    assert rows["network (UDP)"][0] < rows["network (TCP)"][0]

    benchmark(lambda: batch_latency(capi))


def test_fig4_scale_up_vs_scale_out(benchmark):
    capi = OpenCAPILink()
    udp = EthernetLink(gbps=10.0, protocol="udp")

    table = Table(
        "fig4: scale-up (bus cards in one host) vs scale-out "
        "(network-attached cloudFPGA)",
        ["devices", "scale-up batches/s", "scale-out batches/s"],
    )
    crossover = None
    for devices in (1, 2, 4, 8, 16):
        up = pipelined_throughput(capi, min(devices, MAX_HOST_CARDS))
        out = pipelined_throughput(udp, devices)
        table.add_row(devices, up, out)
        if crossover is None and out > up:
            crossover = devices
    table.show()
    print(f"scale-out overtakes the {MAX_HOST_CARDS}-card host at "
          f"{crossover} network-attached devices")

    # scale-up saturates at the chassis limit...
    assert pipelined_throughput(capi, MAX_HOST_CARDS) == \
        pipelined_throughput(capi, MAX_HOST_CARDS)
    # ...while scale-out keeps growing and eventually overtakes
    assert crossover is not None and crossover <= 16
    assert pipelined_throughput(udp, 16) > \
        pipelined_throughput(capi, MAX_HOST_CARDS)

    benchmark(lambda: pipelined_throughput(udp, 16))


def test_fig4_partial_reconfiguration_and_shell(benchmark):
    """Shell-role architecture: user logic swaps without touching the
    privileged shell, and partial images reconfigure ~3x faster."""
    node = build_cloudfpga_node()
    device = node.fpgas[0]
    image = Bitstream(
        name="role-kernel",
        footprint=FPGAResources(luts=40_000, ffs=60_000,
                                bram_kb=1_000, dsps=200),
        clock_hz=200e6,
        partial=True,
    )
    full = Bitstream(
        name="full-kernel", footprint=image.footprint,
        clock_hz=200e6, partial=False,
    )
    partial_time = device.reconfiguration_time(image)
    full_time = device.reconfiguration_time(full)

    role = device.load(image)
    print(f"\nfig4: partial reconfig {partial_time * 1e3:.1f} ms vs "
          f"full {full_time * 1e3:.1f} ms; shell static power "
          f"{device.shell.static_watts:.1f} W; role hosts "
          f"{role.loaded.name!r}")
    assert partial_time < full_time / 2
    assert device.shell.supports_network  # shell owns the network

    device.unload(role)
    benchmark(lambda: (device.load(image), device.unload(role)))


def test_fig4_queueing_under_contention(benchmark):
    """DES cross-check: batches queue when devices are oversubscribed;
    doubling the devices roughly halves the drain time."""

    def drain_time(devices: int, batches: int = 64) -> float:
        sim = Simulator()
        pool = sim.resource(devices, "fpgas")
        udp = EthernetLink(gbps=10.0, protocol="udp")

        def one_batch():
            yield pool.request()
            yield sim.timeout(batch_latency(udp))
            pool.release()

        for _ in range(batches):
            sim.process(one_batch())
        return sim.run()

    four = drain_time(4)
    eight = drain_time(8)
    print(f"\nfig4: draining 64 batches: 4 devices {four * 1e3:.1f} ms,"
          f" 8 devices {eight * 1e3:.1f} ms")
    assert 1.7 < four / eight < 2.3

    benchmark(lambda: drain_time(8, batches=16))
