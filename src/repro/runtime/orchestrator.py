"""End-to-end orchestration: compiled application → distributed run.

The integration seam the paper's Section II promises ("an integrated
execution environment for the applications"): one object that takes a
:class:`~repro.core.compiler.CompiledApplication` and

1. builds the executable task graph from the pipeline IR,
2. places tasks across the ecosystem tiers (move compute to data),
3. selects a variant per kernel *per assigned node class* with the
   autotuner (an edge node and a POWER9 node prefer different
   variants),
4. executes on the distributed workflow engine — optionally with
   crash recovery — and accounts energy.

This is what `examples/` compose by hand; the orchestrator packages it
for downstream users.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.chaos.schedule import ChaosSchedule
from repro.core.compiler import CompiledApplication
from repro.errors import RuntimeSystemError
from repro.obs import current_metrics, current_tracer
from repro.platform.power import EnergyMeter
from repro.platform.topology import Ecosystem, Tier
from repro.runtime.autotuner.goals import Goal
from repro.runtime.autotuner.knowledge import KnowledgeBase
from repro.runtime.autotuner.manager import (
    ApplicationManager,
    SystemState,
)
from repro.runtime.scheduler import TierPlacer
from repro.workflow.graph import TaskGraph
from repro.workflow.journal import RunJournal
from repro.workflow.plan import build_task_graph
from repro.workflow.recovery import (
    RecoveryStats,
    ResilientServer,
)
from repro.workflow.replay import ReplayState
from repro.workflow.scheduler import LocalityScheduler
from repro.workflow.tracing import ExecutionTrace
from repro.workflow.worker import Worker

#: Tracer category for orchestration phase spans and decisions.
RUNTIME_CATEGORY = "runtime.orchestrate"

#: Worker slots granted per node class.
_SLOTS = {"ppc64le": 8, "x86": 8, "arm": 2, "riscv": 2, "fpga": 1}
_SPEED = {"ppc64le": 1.0, "x86": 1.0, "arm": 0.3, "riscv": 0.25,
          "fpga": 0.8}


@dataclass
class DeploymentReport:
    """Everything one distributed run produced."""

    trace: ExecutionTrace
    #: Node of each task's last completion (its planned node when it
    #: never completed).
    placement: Dict[str, str]
    selections: Dict[str, str]
    energy: EnergyMeter
    recovery: Optional[RecoveryStats] = None

    @property
    def makespan(self) -> float:
        """Wall time of the run."""
        return self.trace.makespan


class Orchestrator:
    """Deploys compiled applications onto an ecosystem."""

    def __init__(
        self,
        ecosystem: Ecosystem,
        goal: Goal = Goal(),
    ):
        self.ecosystem = ecosystem
        self.goal = goal

    # ------------------------------------------------------------------

    def _workers_for(self, node_names: List[str]) -> List[Worker]:
        # placed nodes plus the cloud tier as standby capacity (fault
        # tolerance needs somewhere to re-run work)
        standby = [
            node.name
            for node in self.ecosystem.nodes_in_tier(Tier.CLOUD)
            if node.cpu is not None
        ]
        workers = []
        for name in sorted(set(node_names) | set(standby)):
            node = self.ecosystem.nodes[name]
            arch = node.arch
            if arch == "switch" or (node.cpu is None
                                    and not node.has_fpga):
                continue
            workers.append(Worker(
                name=f"{name}/worker",
                node_name=name,
                cpus=_SLOTS.get(arch, 4),
                speed_factor=_SPEED.get(arch, 0.5),
                node=node,
            ))
        if not workers:
            raise RuntimeSystemError("placement used no usable nodes")
        return workers

    def _select_variants(
        self, app: CompiledApplication,
        placement: Dict[str, str], graph: TaskGraph,
    ) -> Dict[str, str]:
        """Pick a variant per task given its assigned node."""
        tracer = current_tracer()
        knowledge = KnowledgeBase()
        knowledge.load_package(app.package)
        manager = ApplicationManager(knowledge, goal=self.goal)
        selections: Dict[str, str] = {}
        for task_name, node_name in placement.items():
            node = self.ecosystem.nodes[node_name]
            kernel = graph.tasks[task_name].kernel
            state = SystemState(fpga_available=node.has_fpga)
            point = manager.select(kernel, state)
            selections[task_name] = point.label
            tracer.instant(
                "variant-selected", category=RUNTIME_CATEGORY,
                task=task_name, node=node_name, kernel=kernel,
                variant=point.label,
                expected_latency_s=point.expected_latency_s,
            )
            # the selected variant's expected latency refines the
            # task duration used by the engine
            graph.tasks[task_name].duration_s = (
                point.expected_latency_s
            )
        return selections

    # ------------------------------------------------------------------

    def _check_locality(self, graph: TaskGraph,
                        data_locality: Dict[str, str]) -> None:
        """Reject a ``data_locality`` entry naming an unknown source or
        node (a typo would otherwise read as "no locality")."""
        sources = {obj.name for obj in graph.external_inputs()}
        for source, node in sorted(data_locality.items()):
            if source not in sources:
                raise RuntimeSystemError(
                    f"data_locality names unknown source {source!r}; "
                    f"sources: {', '.join(sorted(sources))}"
                )
            if node not in self.ecosystem.nodes:
                raise RuntimeSystemError(
                    f"data_locality places {source!r} on unknown node "
                    f"{node!r}"
                )

    def deploy(
        self,
        app: CompiledApplication,
        data_locality: Optional[Dict[str, str]] = None,
        chaos: Optional[ChaosSchedule] = None,
        journal: Optional[RunJournal] = None,
        resume: Optional[ReplayState] = None,
    ) -> DeploymentReport:
        """Place, select and execute; returns the deployment report.

        ``data_locality`` maps source names to the nodes their data
        starts on. ``chaos`` injects faults; ``journal``/``resume``
        make the workflow execution durable and resumable (see
        :mod:`repro.workflow.journal`). The report's ``placement`` is
        where each task last completed.
        """
        tracer = current_tracer()
        metrics = current_metrics()
        with tracer.span(f"deploy:{app.name}",
                         category=RUNTIME_CATEGORY) as deploy_span:
            with tracer.span("placement",
                             category=RUNTIME_CATEGORY) as span:
                graph = build_task_graph(app, locality=data_locality)
                self._check_locality(graph, data_locality or {})
                placement = TierPlacer(self.ecosystem).place(graph)
                span.note(tasks=len(placement.assignments))

            with tracer.span("variant-selection",
                             category=RUNTIME_CATEGORY):
                selections = self._select_variants(
                    app, placement.assignments, graph
                )
            workers = self._workers_for(
                list(placement.assignments.values())
            )
            # the engine starts each input where the placer assumed it
            # was, so tasks run where their variants were chosen
            for obj in graph.external_inputs():
                obj.locality = placement.homes[obj.name]

            server = ResilientServer(
                workers,
                ecosystem=self.ecosystem,
                policy=LocalityScheduler(),
            )
            trace, stats = server.run(
                graph, chaos=chaos, journal=journal, resume=resume,
            )
            by_name = {worker.name: worker for worker in workers}
            ran_on = dict(placement.assignments)
            energy = EnergyMeter()
            for record in trace.records:
                worker = by_name[record.worker]
                ran_on[record.task] = worker.node_name
                node = worker.node
                watts = 20.0
                if node is not None and node.cpu is not None:
                    watts = node.cpu.tdp_watts * 0.5
                energy.add_power(
                    record.worker, watts, record.duration, "compute",
                )
            deploy_span.note(
                makespan=trace.makespan, workers=len(workers),
            )
        metrics.counter(
            "runtime.deployments", "applications deployed",
        ).inc(application=app.name)
        metrics.gauge(
            "runtime.last_makespan_seconds",
            "makespan of the most recent deployment",
        ).set(trace.makespan, application=app.name)
        return DeploymentReport(
            trace=trace,
            placement=ran_on,
            selections=selections,
            energy=energy,
            recovery=stats,
        )
