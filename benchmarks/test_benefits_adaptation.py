"""Experiment ben-adapt — §VI-D "dynamic adaptation".

"The combination of code and hardware variants, dynamic autotuning,
and virtualization will enable a transparent use of the hardware
resources even in case of changes to the configurations." Scenario
suite: resource loss, contention drift, data-feature drift. For each,
the cumulative latency of (a) the adaptive decision maker, (b) the
best *static* variant chosen with nominal knowledge, and (c) the
per-round oracle. Adaptive should close most of the static-vs-oracle
gap.
"""

from __future__ import annotations

from repro.core.variants import CostEstimate, Variant, VariantKnobs
from repro.runtime.autotuner.data_features import DataFeatures
from repro.runtime.autotuner.goals import Goal
from repro.runtime.autotuner.knowledge import KnowledgeBase
from repro.runtime.autotuner.manager import (
    ApplicationManager,
    SystemState,
)
from repro.utils.tables import Table


def make_knowledge() -> KnowledgeBase:
    base = KnowledgeBase()
    for target, threads, unroll, latency, energy, dift in (
        ("cpu", 1, 1, 12e-6, 60e-6, False),
        ("cpu", 8, 1, 4e-6, 90e-6, False),
        ("cpu", 8, 1, 8e-6, 120e-6, True),
        ("fpga", 1, 2, 3e-6, 6e-6, False),
        ("fpga", 1, 8, 1.2e-6, 5e-6, True),
    ):
        base.add_variant(Variant(
            kernel="k",
            knobs=VariantKnobs(target=target, threads=threads,
                               unroll=unroll, dift=dift),
            cost=CostEstimate(latency_s=latency, energy_j=energy),
        ))
    return base


def true_latency(point, state: SystemState,
                 features: DataFeatures) -> float:
    """Ground truth with coefficients the prior model gets wrong."""
    latency = point.predicted_latency_s
    latency *= features.latency_factor(point.variant.is_hardware)
    if point.variant.is_hardware:
        if not state.fpga_available:
            latency = 1.0  # effectively unusable (queued forever)
        latency *= 1.0 + 8.0 * state.fpga_contention
    else:
        latency *= 1.0 + 2.5 * state.cpu_load
    return latency


SCENARIOS = {
    "fpga-loss": lambda r: (
        SystemState(fpga_available=r >= 20), DataFeatures()
    ),
    "contention-drift": lambda r: (
        SystemState(fpga_contention=min(1.0, r / 25.0)),
        DataFeatures(),
    ),
    "data-burst": lambda r: (
        SystemState(),
        DataFeatures(burstiness=1.0 if 15 <= r < 35 else 0.0),
    ),
    "sparsity-shift": lambda r: (
        SystemState(),
        DataFeatures(sparsity=0.9 if r >= 20 else 0.0),
    ),
}
ROUNDS = 40


def run_scenario(name, schedule):
    knowledge = make_knowledge()
    manager = ApplicationManager(knowledge, goal=Goal())
    adaptive_total = 0.0
    oracle_total = 0.0
    for round_index in range(ROUNDS):
        state, features = schedule(round_index)
        point = manager.select("k", state, features)
        observed = true_latency(point, state, features)
        manager.report("k", point, observed,
                       point.predicted_energy_j)
        adaptive_total += observed
        oracle_total += min(
            true_latency(p, state, features)
            for p in knowledge.points_for("k")
        )
    # static: the nominal-best variant, frozen
    static_knowledge = make_knowledge()
    static_manager = ApplicationManager(static_knowledge)
    static_point = static_manager.select("k")
    static_total = sum(
        true_latency(static_point, *schedule(r))
        for r in range(ROUNDS)
    )
    return adaptive_total, static_total, oracle_total, \
        manager.switches


def test_benefits_adaptation(benchmark):
    table = Table(
        "ben-adapt: cumulative latency over 40 rounds (us)",
        ["scenario", "adaptive", "static-best", "oracle",
         "gap closed %", "switches"],
    )
    for name, schedule in SCENARIOS.items():
        adaptive, static, oracle, switches = run_scenario(
            name, schedule
        )
        gap = static - oracle
        closed = 100.0 * (static - adaptive) / gap if gap > 0 else 100.0
        table.add_row(
            name, adaptive * 1e6, static * 1e6, oracle * 1e6,
            closed, switches,
        )
        # adaptation never loses to static, and beats it under change
        assert adaptive <= static * 1.02, name
        if name in ("fpga-loss", "contention-drift"):
            assert adaptive < 0.5 * static, name
        assert adaptive >= oracle - 1e-12, name
    table.show()

    knowledge = make_knowledge()
    manager = ApplicationManager(knowledge)
    benchmark(lambda: manager.select("k", SystemState(),
                                     DataFeatures()))

