"""Experiment fig2 — the virtualized runtime environment (paper Fig. 2).

Exercises the three pillars of the figure over a phased workload:

* phase A (nominal): the autotuner settles on the best variant;
* phase B (FPGA contention by a co-tenant VM): dynamic adaptation
  switches to software;
* phase C (timing-anomaly injection): the data-protection layer
  detects the attack and auto-protection forces DIFT variants.

Reported: per-phase mean latency for adaptive vs static execution,
variant switches, detections and reactions.
"""

from __future__ import annotations

import pytest

from repro.core.compiler import EverestCompiler
from repro.core.dse.space import DesignSpace
from repro.core.dsl.workflow import Pipeline
from repro.core.ir import F32, TensorType
from repro.runtime.autotuner.data_features import DataFeatures
from repro.runtime.autotuner.manager import SystemState
from repro.runtime.executor import RuntimeExecutor
from repro.utils.tables import Table

KERNEL = """
kernel score(X: tensor<256xf32>, G: tensor<256xf32>)
        -> tensor<256xf32> {
  Y = sigmoid(exp(X) * G)
  return Y
}
"""

PHASES = (("nominal", 0, 15), ("contention", 15, 30),
          ("attack", 30, 45))


@pytest.fixture(scope="module")
def app():
    pipeline = Pipeline("fig2-app")
    x = pipeline.source("x", TensorType((256,), F32))
    g = pipeline.source("g", TensorType((256,), F32))
    task = pipeline.task("score", KERNEL, inputs=[x, g])
    pipeline.sink("out", task.output(0))
    space = DesignSpace(
        targets=("cpu", "fpga"), threads=(1, 4),
        unrolls=(1, 4), dift_options=(False, True),
    )
    return EverestCompiler(space=space).compile(pipeline)


def phased_reality(point, state, features):
    latency = point.predicted_latency_s
    energy = point.predicted_energy_j
    if point.variant.is_hardware:
        latency *= 1.0 + 6.0 * state.fpga_contention
    else:
        latency *= 1.0 + 2.0 * state.cpu_load
    return latency, energy


def schedule(index):
    if index < 15:
        return SystemState(), DataFeatures()
    if index < 30:
        return SystemState(fpga_contention=1.0), DataFeatures()
    return SystemState(), DataFeatures()


def run_executor(app, adaptive):
    executor = RuntimeExecutor(
        app, adaptive=adaptive, reality=phased_reality
    )
    # Inject a timing attack during phase C by inflating measured
    # latencies through a wrapped reality model.
    original = executor.reality

    def attacked(point, state, features):
        latency, energy = original(point, state, features)
        return latency, energy

    results = []
    # run phases A+B normally
    for index in range(30):
        state, features = schedule(index)
        results.append(executor.run_round(index, state, features))
    # phase C: timing-channel attack inflates latencies 5x
    executor.reality = lambda p, s, f: tuple(
        value * (5.0 if i == 0 else 1.0)
        for i, value in enumerate(original(p, s, f))
    )
    for index in range(30, 45):
        state, features = schedule(index)
        results.append(executor.run_round(index, state, features))
    return executor, results


def test_fig2_adaptation_and_protection(app, benchmark):
    adaptive_exec, adaptive_rounds = run_executor(app, adaptive=True)
    static_exec, static_rounds = run_executor(app, adaptive=False)

    table = Table(
        "fig2: virtualized runtime under a phased workload "
        "(per-round latency, reconfig excluded)",
        ["phase", "adaptive us", "static us", "adaptive choice"],
    )
    for name, start, end in PHASES:
        adaptive_lat = sum(
            r.latency_s - r.reconfig_s
            for r in adaptive_rounds[start:end]
        ) / (end - start)
        static_lat = sum(
            r.latency_s - r.reconfig_s
            for r in static_rounds[start:end]
        ) / (end - start)
        choice = adaptive_rounds[end - 1].selections["score"]
        table.add_row(
            name, adaptive_lat * 1e6, static_lat * 1e6, choice
        )
    table.show()

    print(f"adaptive switches : {adaptive_exec.manager.switches}")
    print(f"incidents         : "
          f"{len(adaptive_exec.protection.incidents)}")
    print(f"DIFT forced       : "
          f"{adaptive_exec.protection.dift_forced}")

    # Shape claims:
    # 1. under contention, adaptive beats static
    contention_adaptive = sum(
        r.latency_s - r.reconfig_s for r in adaptive_rounds[15:30]
    )
    contention_static = sum(
        r.latency_s - r.reconfig_s for r in static_rounds[15:30]
    )
    assert contention_adaptive < contention_static
    # 2. the adaptive runtime actually switched variants
    assert adaptive_exec.manager.switches >= 1
    # 3. the timing attack was detected and auto-protection reacted
    assert any(incident.kind == "timing-anomaly"
               for incident in adaptive_exec.protection.incidents)
    assert adaptive_exec.protection.dift_forced
    # 4. under alert, only DIFT variants are selected
    final_choice = adaptive_rounds[-1].selections["score"]
    assert "dift" in final_choice

    benchmark(
        lambda: adaptive_exec.manager.select(
            "score", SystemState(), DataFeatures()
        )
    )


def test_fig2_vfpga_isolation(app, benchmark):
    """The hypervisor extensions isolate FPGA roles between VMs."""
    from repro.errors import SecurityError
    from repro.platform.node import build_power9_node
    from repro.runtime.virt import VFPGAManager, VM
    from repro.utils.units import GB

    node = build_power9_node()
    manager = VFPGAManager(node)
    tenant_a = VM("tenant-a", vcpus=2, memory_bytes=GB)
    tenant_b = VM("tenant-b", vcpus=2, memory_bytes=GB)

    variant = next(
        v for v in app.package.variants_for("score") if v.is_hardware
    )
    bitstream = app.package.artifact_for(variant).payload
    lease = manager.allocate(tenant_a, bitstream)

    blocked = 0
    for _ in range(100):
        try:
            manager.access(tenant_b, lease.role.name)
        except SecurityError:
            blocked += 1
    print(f"\nfig2: foreign-role accesses blocked: {blocked}/100")
    assert blocked == 100

    benchmark(lambda: manager.access(tenant_a, lease.role.name))
