"""The HLS driver: kernel-form function → accelerator design.

Named for Bambu [27], the open-source HLS tool EVEREST builds on. The
driver chains CDFG extraction, memory planning, scheduling, allocation
and optional DIFT and crypto insertion, producing an
:class:`AcceleratorDesign` that the DSE cost model and the backend
packaging consume; the FSMD behind its RTL is built when asked for.

The CDFG holds what no option changes, so a kernel's is built once per
version of its module (:func:`~repro.core.hls.cdfg.cdfg_of`) and every
synthesis of it, whatever its options, starts from that one structure;
one body copy's list schedule is kept per loop and binding-limit set
(:func:`~repro.core.hls.scheduling.schedule_loop`). A design depends
on the module's content, the kernel and the options alone, and no
step reads the clock, so pricing synthesizes once per prepared content
and clock-free option set
(:func:`~repro.core.dse.cache.synthesis_memo`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Dict, Optional

from repro.core.hls.allocation import Allocation, allocate
from repro.core.hls.cdfg import CDFG, cdfg_of
from repro.core.hls.crypto import CryptoCore, core_for
from repro.core.hls.fsmd import FSMD, build_fsmd, emit_verilog
from repro.core.hls.memory import MemoryPlan, plan_memories
from repro.core.hls.scheduling import (
    ResourceBudget,
    Schedule,
    nest_cycles,
    schedule_loop,
)
from repro.core.hls.taint import TaintReport, apply_taint_tracking
from repro.core.ir.module import Function, Module
from repro.core.ir.types import MemRefType
from repro.core.variants import VariantKnobs
from repro.errors import HLSError
from repro.platform.fpga import Bitstream
from repro.platform.resources import FPGAResources
from repro.utils.validation import check_positive

#: Accelerator clock when no knob sets one.
DEFAULT_CLOCK_HZ = 250e6
#: Dynamic power per thousand active cells (LUTs + FFs), in units of
#: 0.1 W.
DYNAMIC_WATTS_PER_KILOUNIT = 0.35


@dataclass(frozen=True)
class HLSOptions:
    """Synthesis knobs — the hardware-variant axes of the DSE.

    ``unroll`` and ``interleave`` are the loop directives HLS applies
    to the innermost loops (see :meth:`~repro.core.hls.cdfg.CDFG.directed`);
    like ``enable_dift``, ``None`` follows the function's own IR
    attributes.
    """

    clock_hz: float = DEFAULT_CLOCK_HZ
    budget: ResourceBudget = field(default_factory=ResourceBudget)
    memory_strategy: str = "auto"  # auto | cyclic | block | none
    enable_dift: Optional[bool] = None  # None = follow function attr
    unroll: Optional[int] = None  # None = follow loop attrs
    interleave: Optional[int] = None  # None = follow loop attrs

    def __post_init__(self):
        check_positive("clock_hz", self.clock_hz)
        for factor in (self.unroll, self.interleave):
            check_positive("loop factor", 1 if factor is None else factor)


def hls_options_for(knobs: VariantKnobs) -> HLSOptions:
    """The synthesis options one FPGA knob assignment stands for.

    The one knobs -> options rule shared by DSE pricing, artifact
    emission and the ``synth`` / ``emit`` commands, so what is priced
    is what is built: the innermost loops take the knob's unroll
    factor, and its interleave factor when it asks for partial sums;
    functional units scale with the unroll factor; DIFT is forced on
    by the knob, else left to the function.
    """
    return HLSOptions(
        clock_hz=knobs.clock_hz,
        memory_strategy=knobs.memory_strategy,
        budget=ResourceBudget(fadd=4 * knobs.unroll, fmul=4 * knobs.unroll),
        enable_dift=knobs.dift or None,
        unroll=knobs.unroll,
        interleave=knobs.interleave if knobs.interleave > 1 else None,
    )


@dataclass
class DesignFigures:
    """What pricing reads of a synthesized design, at one clock.

    No synthesis step reads the clock: the figures of the same design
    at another clock are this record with ``clock_hz`` replaced, and
    latency, energy and bitstream follow from it here, for pricing and
    :class:`AcceleratorDesign` alike.
    """

    kernel_name: str
    clock_hz: float
    latency_cycles: int
    resources: FPGAResources
    dynamic_watts: float
    data_bytes: int  # argument bytes one invocation streams

    @property
    def latency_seconds(self) -> float:
        """Wall-clock latency of one invocation at the design clock."""
        return self.latency_cycles / self.clock_hz

    @property
    def energy_per_invocation(self) -> float:
        """Joules per invocation (dynamic only)."""
        return self.dynamic_watts * self.latency_seconds

    def bitstream(self) -> Bitstream:
        """Package the design as a loadable bitstream image."""
        return Bitstream(
            f"{self.kernel_name}@{int(self.clock_hz / 1e6)}MHz",
            self.resources, self.clock_hz, self.dynamic_watts)

    def figures(self) -> "DesignFigures":
        """These figures alone, without what a subclass adds."""
        return DesignFigures(*(
            getattr(self, spec.name) for spec in fields(DesignFigures)))


@dataclass
class AcceleratorDesign(DesignFigures):
    """Result of synthesizing one kernel: its figures at the design
    clock (``options.clock_hz``) and the structures behind them."""

    options: HLSOptions
    cdfg: CDFG
    schedules: Dict[int, Schedule]
    memory_plan: MemoryPlan
    allocation: Allocation
    taint_report: Optional[TaintReport] = None
    crypto_core: Optional[CryptoCore] = None

    @cached_property
    def fsmd(self) -> FSMD:
        """The state machine behind :meth:`rtl`, built on first use."""
        return build_fsmd(self.cdfg, self.schedules, self.memory_plan)

    def rtl(self) -> str:
        """Pseudo-RTL text of the design."""
        return emit_verilog(self.fsmd)

    def report(self) -> str:
        """Multi-line synthesis report."""
        lines = [
            f"kernel           : {self.kernel_name}",
            f"clock            : {self.options.clock_hz / 1e6:.0f} MHz",
            f"latency          : {self.latency_cycles} cycles "
            f"({self.latency_seconds * 1e6:.2f} us)",
            f"units            : {self.allocation.describe()}",
            f"resources        : {self.resources}",
            f"memory banks     : "
            f"{sum(p.factor for p in self.memory_plan.buffers.values())}",
            f"dynamic power    : {self.dynamic_watts:.2f} W",
        ]
        if self.taint_report is not None:
            overhead = self.taint_report.area_overhead_fraction(
                self.resources - self.taint_report.extra
            )
            lines.append(
                f"DIFT             : {len(self.taint_report.tracked_labels)}"
                f" labels, +{overhead * 100:.1f}% cells"
            )
        if self.crypto_core is not None:
            lines.append(f"crypto core      : {self.crypto_core.name}")
        return "\n".join(lines)


def synthesize(
    module: Module,
    kernel_name: str,
    options: Optional[HLSOptions] = None,
) -> AcceleratorDesign:
    """Synthesize one kernel-form function into an accelerator."""
    options = options or HLSOptions()
    function = module.find_function(kernel_name)
    if function is None:
        raise HLSError(f"no function named {kernel_name!r}")
    cdfg = cdfg_of(function).directed(
        options.unroll, options.interleave)
    innermost = cdfg.innermost_loops()
    memory_plan = plan_memories(
        cdfg, unroll=max((loop.unroll for loop in innermost), default=1),
        strategy=options.memory_strategy,
    )
    ports = memory_plan.ports_map()
    schedules: Dict[int, Schedule] = {
        id(loop): schedule_loop(loop, options.budget, ports)
        for loop in innermost
    }

    latency = nest_cycles(cdfg.root, schedules)
    allocation = allocate(cdfg, schedules, memory_plan)
    resources = allocation.resources

    taint_report = None
    wants_dift = options.enable_dift
    if wants_dift is None:
        wants_dift = bool(function.op.attr("dift"))
    if wants_dift:
        labels = sorted({
            op.attr("label")
            for op in function.walk()
            if op.name == "secure.taint"
        } or {"default"})
        inflight = sum(len(loop.body) for loop in innermost)
        taint_report = apply_taint_tracking(
            allocation.unit_counts,
            inflight,
            memory_plan,
            labels,
            egress_count=max(
                1, len(function.type.results) + _out_param_count(function)
            ),
        )
        resources = resources + taint_report.extra
        latency += taint_report.extra_latency_cycles

    crypto_core = None
    cipher = function.op.attr("cipher")
    if cipher:
        crypto_core = core_for(cipher)
        resources = resources + crypto_core.area
        latency += crypto_core.cycles_for(_sensitive_bytes(function))

    # Dynamic power from the active cell count, plus the crypto core's.
    kilounits = (resources.luts + resources.ffs) / 1000.0
    dynamic_watts = kilounits * DYNAMIC_WATTS_PER_KILOUNIT / 10.0
    if crypto_core is not None:
        dynamic_watts += crypto_core.dynamic_watts

    return AcceleratorDesign(
        kernel_name=function.name,
        clock_hz=options.clock_hz,
        latency_cycles=max(1, int(latency)),
        resources=resources,
        dynamic_watts=dynamic_watts,
        data_bytes=argument_bytes(function),
        options=options,
        cdfg=cdfg,
        schedules=schedules,
        memory_plan=memory_plan,
        allocation=allocation,
        taint_report=taint_report,
        crypto_core=crypto_core,
    )


def argument_bytes(function: Function) -> int:
    """Bytes of the memref arguments: what one invocation streams."""
    return sum(
        argument.type.size_bytes for argument in function.arguments
        if isinstance(argument.type, MemRefType)
    )


def _out_param_count(function: Function) -> int:
    lowered = function.op.attr("lowered_from") == "tensor"
    if not lowered:
        return 0
    return sum(
        1 for t in function.type.inputs if isinstance(t, MemRefType)
    )


def _sensitive_bytes(function: Function) -> int:
    """Bytes that transit the crypto core: sensitive memref arguments."""
    sensitive = function.op.attr("everest.sensitive_args", [])
    total = 0
    for index in sensitive:
        if index < len(function.type.inputs):
            declared = function.type.inputs[index]
            if isinstance(declared, MemRefType):
                total += declared.size_bytes
    if total == 0 and sensitive:
        total = 64  # scalar secrets still pay a block
    return total
