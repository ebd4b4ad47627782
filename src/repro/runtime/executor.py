"""The runtime executor: compiled application → adaptive execution.

Drives repeated invocations of an application's pipeline on a
simulated node, wiring together all of Fig. 2:

* the **autotuner** selects a variant per kernel per round from the
  packaged operating points, the current system state and the data
  features;
* the **vFPGA manager** loads/reconfigures bitstreams when hardware
  variants are chosen (first use pays reconfiguration);
* **hardware monitors** watch observed latencies; anomalies feed the
  **auto-protection** engine, whose alert state constrains subsequent
  selections to DIFT-instrumented variants;
* a configurable **reality model** produces ground-truth latencies and
  energies that deviate from the compiler's predictions (noise, drift,
  contention), which is what makes adaptation measurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.compiler import CompiledApplication
from repro.errors import RuntimeSystemError
from repro.platform.node import build_power9_node
from repro.platform.power import EnergyMeter
from repro.runtime.autotuner.data_features import (
    NOMINAL,
    DataFeatures,
)
from repro.runtime.autotuner.goals import Goal
from repro.runtime.autotuner.knowledge import (
    KnowledgeBase,
    OperatingPoint,
)
from repro.runtime.autotuner.manager import (
    IDLE,
    ApplicationManager,
    SystemState,
)
from repro.runtime.dataprotection.anomaly import HardwareMonitor
from repro.runtime.dataprotection.policy import AutoProtection
from repro.runtime.virt.hypervisor import Hypervisor
from repro.runtime.virt.vfpga import VFPGAManager
from repro.utils.rng import deterministic_rng
from repro.utils.units import GB
from repro.workflow.plan import build_task_graph

RealityModel = Callable[
    [OperatingPoint, SystemState, DataFeatures], Tuple[float, float]
]


@dataclass
class RoundResult:
    """Outcome of one pipeline round."""

    index: int
    latency_s: float
    energy_j: float
    selections: Dict[str, str] = field(default_factory=dict)
    reconfig_s: float = 0.0


@dataclass
class ExecutionReport:
    """Aggregate of a full execution."""

    rounds: List[RoundResult] = field(default_factory=list)
    energy: EnergyMeter = field(default_factory=EnergyMeter)
    switches: int = 0
    incidents: int = 0
    reconfigurations: int = 0

    @property
    def total_latency_s(self) -> float:
        """Sum of round latencies."""
        return sum(r.latency_s for r in self.rounds)

    @property
    def total_energy_j(self) -> float:
        """Sum of round energies."""
        return sum(r.energy_j for r in self.rounds)

    def mean_latency_s(self) -> float:
        """Average round latency."""
        if not self.rounds:
            return 0.0
        return self.total_latency_s / len(self.rounds)

    def selections_timeline(self, kernel: str) -> List[str]:
        """Chosen variant description per round for one kernel."""
        return [
            r.selections.get(kernel, "") for r in self.rounds
        ]


#: Normal draws the reality model takes from its generator at once.
_NOISE_BLOCK = 256


def default_reality(seed: str = "reality") -> RealityModel:
    """Truth = prediction × lognormal noise × state effects.

    The contention/load coefficients intentionally differ from the
    decision maker's internal model, so feedback learning matters. The
    noise is drawn a block of standard normals at a time; each value is
    bit for bit the scalar ``lognormal`` draw the same normal gives.
    """
    rng = deterministic_rng("executor-reality", seed)
    normals: Iterator[float] = iter(())

    def model(point: OperatingPoint, state: SystemState,
              features: DataFeatures) -> Tuple[float, float]:
        nonlocal normals
        is_hw = point.is_hardware
        latency = point.predicted_latency_s
        energy = point.predicted_energy_j
        latency *= features.latency_factor(is_hw)
        energy *= features.energy_factor(is_hw)
        if is_hw:
            latency *= 1.0 + 3.5 * state.fpga_contention
        else:
            latency *= 1.0 + 2.4 * state.cpu_load
        normal = next(normals, None)
        if normal is None:
            normals = iter(rng.standard_normal(_NOISE_BLOCK).tolist())
            normal = next(normals)
        # the draw ``rng.lognormal(0.0, 0.08)`` makes from this normal
        noise = math.exp(0.08 * normal)
        return latency * noise, energy * noise

    return model


class RuntimeExecutor:
    """Executes a compiled application adaptively."""

    def __init__(
        self,
        app: CompiledApplication,
        goal: Goal = Goal(),
        reality: Optional[RealityModel] = None,
        adaptive: bool = True,
    ):
        self.app = app
        self.node = build_power9_node()
        self.knowledge = KnowledgeBase()
        self.knowledge.load_package(app.package)
        self.manager = ApplicationManager(self.knowledge, goal=goal)
        self.reality = reality or default_reality(app.name)
        self.adaptive = adaptive
        self.graph = build_task_graph(app)
        # the graph does not change between rounds: order its kernels,
        # and name their monitored metrics, once
        self._kernels = [
            (kernel, f"{kernel}.timing")
            for kernel in (self.graph.tasks[name].kernel
                           for name in self.graph.topological_order())
        ]
        self.monitor = HardwareMonitor(threshold_sigma=4.0,
                                       min_training=12)
        self.protection = AutoProtection()
        self.vfpga: Optional[VFPGAManager] = (
            VFPGAManager(self.node) if self.node.fpgas else None
        )
        self.hypervisor = Hypervisor(self.node)
        self.vm = self.hypervisor.create_vm(
            f"{app.name}-vm", vcpus=4, memory_bytes=8 * GB
        )
        self.vm.start()
        self._loaded: Dict[str, object] = {}  # kernel -> lease
        self._static_selection: Dict[str, OperatingPoint] = {}
        # the last input state a forced alert was raised on, and the
        # alerted state: a select sees the same object while they last
        self._alerted: Tuple[Optional[SystemState],
                             Optional[SystemState]] = (None, None)

    # ------------------------------------------------------------------

    def _select(self, kernel: str, state: SystemState,
                features: DataFeatures) -> OperatingPoint:
        if self.adaptive:
            return self.manager.select(kernel, state, features)
        if kernel not in self._static_selection:
            self._static_selection[kernel] = self.manager.select(
                kernel, IDLE, NOMINAL
            )
        return self._static_selection[kernel]

    def _ensure_loaded(self, kernel: str,
                       point: OperatingPoint) -> float:
        """Load/reconfigure the bitstream for a hardware variant."""
        if not point.is_hardware or self.vfpga is None:
            return 0.0
        artifact = self.app.package.artifact_for(point.variant)
        if artifact is None or artifact.kind != "bitstream":
            return 0.0
        bitstream = artifact.payload
        lease = self._loaded.get(kernel)
        if lease is not None and \
                lease.bitstream_name == bitstream.name:
            return 0.0
        before = self.vfpga.total_reconfig_seconds
        if lease is None:
            lease = self.vfpga.allocate(self.vm, bitstream)
            self._loaded[kernel] = lease
        else:
            self.vfpga.reconfigure(self.vm, lease, bitstream)
        return self.vfpga.total_reconfig_seconds - before

    # ------------------------------------------------------------------

    def run_round(
        self,
        index: int,
        state: Optional[SystemState] = None,
        features: Optional[DataFeatures] = None,
    ) -> RoundResult:
        """Execute every pipeline task once, sequentially."""
        state = IDLE if state is None else state.clamp()
        features = features or NOMINAL
        if self.protection.dift_forced and not state.security_alert:
            if self._alerted[0] is not state:
                self._alerted = (state, replace(state, security_alert=True))
            state = self._alerted[1]
        total_latency = total_energy = total_reconfig = 0.0
        selections: Dict[str, str] = {}
        for kernel, timing in self._kernels:
            point = self._select(kernel, state, features)
            reconfig = self._ensure_loaded(kernel, point)
            total_reconfig += reconfig
            latency, energy = self.reality(point, state, features)
            self.manager.report(kernel, point, latency, energy)
            anomaly = self.monitor.observe(timing, latency)
            if anomaly is not None:
                self.protection.report_anomaly(anomaly,
                                               node=self.node.name)
            total_latency += latency + reconfig
            total_energy += energy
            selections[kernel] = point.label
        return RoundResult(index, total_latency, total_energy, selections,
                           total_reconfig)

    def run(
        self,
        rounds: int,
        schedule: Optional[Callable[[int],
                                    Tuple[SystemState,
                                          DataFeatures]]] = None,
    ) -> ExecutionReport:
        """Run many rounds under a workload schedule."""
        if rounds <= 0:
            raise RuntimeSystemError("rounds must be positive")
        report = ExecutionReport()
        for index in range(rounds):
            if schedule is not None:
                state, features = schedule(index)
            else:
                state, features = IDLE, NOMINAL
            round_result = self.run_round(index, state, features)
            report.rounds.append(round_result)
            report.energy.add(
                self.node.name, round_result.energy_j, "compute"
            )
        report.switches = self.manager.switches
        report.incidents = len(self.protection.incidents)
        if self.vfpga is not None:
            report.reconfigurations = sum(
                role.reconfigurations
                for device in self.node.fpgas
                for role in device.roles
            )
        return report
