"""Chaos fault injection for the simulated EVEREST platform.

The SDK papers stress that a heterogeneous runtime must tolerate much
more than a single worker crash: links degrade and partition, partial
reconfiguration of vFPGA roles fails transiently, nodes straggle, and
tasks hit transient faults. This package provides the fault vocabulary
(:mod:`faults`) and a seeded deterministic schedule generator
(:mod:`schedule`) — neither loads the workflow layer that consumes
them — and hands on the seeded random workflow generator that lives
beside :class:`~repro.workflow.graph.TaskGraph`, so chaos runs are
property tests: any (graph seed, fault seed) pair replays
bit-identically.
"""

from repro.chaos.faults import (
    LinkFault,
    ReconfigFault,
    StragglerFault,
    TaskFault,
    WorkerCrash,
)
from repro.chaos.schedule import (
    ChaosConfig,
    ChaosSchedule,
    generate_schedule,
)
from repro.workflow.graph import random_task_graph

__all__ = [
    "WorkerCrash",
    "LinkFault",
    "ReconfigFault",
    "StragglerFault",
    "TaskFault",
    "ChaosConfig",
    "ChaosSchedule",
    "generate_schedule",
    "random_task_graph",
]
