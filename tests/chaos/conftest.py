"""Shared helpers for the chaos suite."""

from __future__ import annotations

import pytest

from repro.chaos import ChaosConfig, generate_schedule, random_task_graph
from repro.workflow.graph import DataObject, TaskGraph, WorkflowTask
from repro.workflow.worker import Worker

#: The chaos grid: every graph seed against every fault seed.
GRAPH_SEEDS = range(5)
FAULT_SEEDS = range(4)
CONFIG = ChaosConfig(crashes=2, link_faults=2, reconfig_faults=1,
                     stragglers=1, task_faults=2)


def chain_graph(length=4, duration=1.0) -> TaskGraph:
    graph = TaskGraph("chain")
    graph.add_object(DataObject("in", size_bytes=1000, locality="w0"))
    previous = "in"
    for index in range(length):
        graph.add_task(WorkflowTask(
            f"t{index}", inputs=[previous], outputs=[f"o{index}"],
            duration_s=duration,
        ))
        previous = f"o{index}"
    return graph


def make_pool(count: int = 3, cpus: int = 2):
    """A fresh worker pool (never share Workers between runs: they
    carry mutable stores and slot accounting)."""
    return [
        Worker(f"w{index}", node_name=f"n{index}", cpus=cpus)
        for index in range(count)
    ]


def seeded_chaos(graph_seed: int, fault_seed: int, num_tasks: int = 10,
                 workers: int = 3, config: ChaosConfig = CONFIG):
    """``(graph, pool, schedule)``: a seeded graph, a fresh pool and the
    schedule the fault seed draws for both."""
    graph = random_task_graph(graph_seed, num_tasks=num_tasks)
    pool = make_pool(workers)
    return graph, pool, generate_schedule(
        graph, [worker.name for worker in pool], fault_seed, config)


@pytest.fixture
def pool():
    return make_pool()
