"""Static performance analysis: analytic work/traffic/II lower bounds.

The DSE layer discovers performance facts by *pricing* knob points
through the cost model — pass pipeline, scheduling, memory planning
per point. Most of what pricing learns is already determined by the
loop structure the abstract interpreter (:mod:`.absint`) extracts:
trip counts, access patterns, loop-carried recurrences. This module
derives it once, analytically, as a :class:`StaticBounds` record per
kernel:

* **work** — total operation counts by resource class, per loop nest
  and whole-function (plus the tensor-level FLOP estimate the CPU
  model prices);
* **traffic** — bytes moved per buffer, with *reuse credit* for loads
  provably invariant in their inner loops (they can be hoisted into
  registers and issued once per surrounding iteration);
* **II floor** — an achievable initiation-interval lower bound per
  innermost loop from memory-port pressure and the loop-carried
  accumulation chain;
* **roofline verdict** — compute-bound vs memory-bound at default
  knobs, naming the binding resource.

Three consumers:

1. :func:`check_module_perf` — PERF001-PERF005 diagnostics for
   ``repro lint`` (kernel-form functions only; tensor-form kernels
   have not chosen knobs yet, so their performance is a DSE concern);
2. ``repro perf`` — the CLI report (per-loop-nest bound table);
3. :func:`repro.core.dse.cost_model.bound_for` — a per-knob-point
   ``(latency, energy)`` lower bound the explorer uses to order
   candidates and skip points whose bound is already dominated by the
   incumbent front (``Explorer(bound_guided=True)``). It lives with the
   pricing arithmetic it reuses, one layer up; this module hands it the
   record and :func:`fpga_cycles_lower_bound`.

**Soundness contract**: for every knob point, the cost model's priced
latency and energy never fall below ``bound_for``'s result. For CPU
targets the bound *is* the cost model's own arithmetic (``bound_for``
calls ``cpu_cost_terms`` on this module's work figures). For FPGA
targets the cycle bound calls the *same* functions the memory planner
and the scheduler call (:mod:`repro.core.timing`: partition decision,
port grant, port demand, initiation interval, pipelined cycle count;
``bound_for`` adds the link term with ``fpga_link_terms``) with a
subset of their terms — no functional-unit terms, register-partitioned
buffers left out, body depth 1, body copies clamped to the trip count
— so it cannot exceed the schedule. Knob combinations that restructure
loops (tiling, interchange, layout, interleaving, DIFT) fall back to a
crude ``ceil(iterations/unroll)`` floor that survives any
iteration-preserving transform. The property suite
``tests/analysis/test_perf_properties.py`` polices the contract, link
by link, on every example and seeded random kernel.

Bounds are memoized per content digest (in-process LRU) and persisted
in the digest-keyed :class:`~repro.core.analysis.cache.AnalysisCache`
with payload kind ``"perf"`` (see ``repro cache stats``).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.analysis.absint import (
    AnalysisFacts,
    FunctionFacts,
    compute_function_facts,
)
from repro.core.analysis.cache import AnalysisCache, analysis_cache
from repro.core.hls.bambu import DEFAULT_CLOCK_HZ, argument_bytes
from repro.core.hls.cdfg import CDFG, LoopNode, cdfg_of
from repro.core.hls.memory import small_alloc
from repro.core.hls.scheduling import RESOURCE_CLASS, chain_latency
from repro.core.ir.dialects.hw import partition_directives
from repro.core.ir.digest import module_digest
from repro.core.ir.module import Module
from repro.core.ir.passes import (
    CanonicalizePass,
    ElementwiseFusionPass,
    LowerTensorPass,
    PassManager,
)
from repro.core.ir.passes.partitioning import estimate_work, signature_bytes
from repro.core.ir.types import MemRefType
from repro.core.store import LRUCache, decode, encode
from repro.core.timing import (
    PORTS_PER_BANK,
    body_copies,
    initiation_interval,
    partition_for,
    pipelined_cycles,
    port_demand,
    ports_granted,
)
from repro.diagnostics import Diagnostics
from repro.errors import HLSError
from repro.obs import current_metrics
from repro.platform.interconnect import OpenCAPILink


# ---------------------------------------------------------------------
# The bounds record.


@dataclass
class NestBounds:
    """Analytic facts about one innermost loop nest."""

    anchor: str
    depth: int
    trip: int  # innermost trip count
    outer_iters: int  # product of enclosing loop trips
    #: operation counts per innermost iteration, by resource class
    #: ("alu" for unconstrained ops).
    ops: Dict[str, int] = field(default_factory=dict)
    #: memory accesses per innermost iteration, per buffer name.
    accesses: Dict[str, int] = field(default_factory=dict)
    #: loop-carried accumulation chain latency in cycles (0 = none).
    chain_latency: int = 0

    @property
    def total_iters(self) -> int:
        return self.trip * self.outer_iters

    def ii_floor(
        self, unroll: int, ports_of: Dict[str, int]
    ) -> Tuple[int, str, str]:
        """``(ii, kind, buffer)`` floor at ``unroll`` given port grants.

        The scheduler's :func:`~repro.core.timing.initiation_interval`
        over the port and recurrence terms alone. A port grant of 0
        means effectively unlimited (registers): the term is left out.
        """
        copies = body_copies(unroll, self.trip)
        return initiation_interval(
            1, (),
            [(buffer, port_demand(count, copies), ports)
             for buffer, count in self.accesses.items()
             if (ports := ports_of.get(buffer, PORTS_PER_BANK)) > 0],
            self.chain_latency, 1,
        )


@dataclass
class BufferTraffic:
    """Bytes one buffer moves per kernel invocation."""

    buffer: str
    #: without reuse credit: every access re-reads memory.
    bytes_naive: int = 0
    #: with reuse credit for provably loop-invariant loads.
    bytes_moved: int = 0
    accesses: int = 0  # static access sites


@dataclass
class BufferInfo:
    """What the memory planner will see for one buffer."""

    buffer: str
    elements: int
    element_bits: int
    #: accesses across every loop body (plan_memories' needed-ports
    #: input).
    total_accesses: int = 0
    #: small kernel.alloc scratch -> complete partitioning (registers).
    small_alloc: bool = False
    #: explicit hw.partition directive, if any.
    scheme: str = ""
    factor: int = 0

    def ports(self, strategy: str, max_unroll: int) -> int:
        """Port grant the memory plan will produce (0 = unlimited).

        The planner's own :func:`~repro.core.timing.partition_for`
        decision on the planner's inputs, so for structure-preserving
        knob points the grant is the scheduled one.
        """
        scheme, factor = partition_for(
            (self.scheme, self.factor) if self.scheme else None,
            strategy, self.small_alloc, self.elements,
            port_demand(self.total_accesses, max(1, max_unroll)),
        )
        if scheme == "complete":
            return 0
        return ports_granted(scheme, factor, self.elements)


@dataclass
class StaticBounds:
    """Analytic lower bounds for one kernel (the reusable record)."""

    kernel: str
    #: tensor-level FLOP estimate (what the CPU cost model prices).
    work: float = 0.0
    #: tensor-signature bytes (the CPU model's memory term).
    data_bytes: int = 0
    #: lowered memref-argument bytes (the FPGA link's stream floor).
    arg_bytes: int = 0
    #: total dynamic operation counts by resource class.
    op_counts: Dict[str, int] = field(default_factory=dict)
    nests: List[NestBounds] = field(default_factory=list)
    traffic: List[BufferTraffic] = field(default_factory=list)
    buffers: List[BufferInfo] = field(default_factory=list)
    #: "compute-bound" | "memory-bound" at default knobs.
    verdict: str = "compute-bound"
    #: the binding resource at default knobs (e.g. "recurrence chain",
    #: "link bandwidth", "memport:%A").
    binding: str = ""
    #: the store kind its payload goes under (``AnalysisCache.put``).
    kind: str = field(default="perf", init=False)


# ---------------------------------------------------------------------
# Deriving bounds from kernel-form IR.


def _baseline_kernel_form(module: Module, kernel: str):
    """The kernel lowered with the knob-independent baseline pipeline.

    Every variant pipeline starts with elementwise fusion and ends in
    lowering + canonicalization; the baseline applies exactly those,
    so structure-preserving knob points (no tiling / interchange /
    layout / interleave / DIFT) schedule the *same* loop bodies the
    baseline analyzed.
    """
    function = module.find_function(kernel)
    if function is None:
        return None
    if not any(op.dialect == "tensor" for op in function.walk()):
        return function  # already kernel-form
    clone = module.clone()
    manager = PassManager(verify_each=False)
    manager.add(ElementwiseFusionPass())
    manager.add(LowerTensorPass())
    manager.add(CanonicalizePass())
    manager.run(clone)
    return clone.find_function(kernel)


def _nest_walk(
    loop: LoopNode, outer: int, nests: List[Tuple[LoopNode, int]]
) -> None:
    product = outer if loop.op is None else outer * max(
        1, loop.trip_count)
    if loop.op is not None and loop.is_innermost:
        nests.append((loop, outer))
        return
    for child in loop.children:
        _nest_walk(child, product, nests)


def _collect_nests(kernel: str, cdfg: CDFG) -> List[NestBounds]:
    raw: List[Tuple[LoopNode, int]] = []
    _nest_walk(cdfg.root, 1, raw)
    nests: List[NestBounds] = []
    for position, (loop, outer) in enumerate(raw):
        ops: Dict[str, int] = {}
        for node in loop.body:
            cls = RESOURCE_CLASS.get(node.op.name, "alu")
            ops[cls] = ops.get(cls, 0) + 1
        accesses: Dict[str, int] = {}
        for buffer, count in loop.accesses.items():
            accesses[buffer.name] = accesses.get(buffer.name, 0) + count
        nests.append(NestBounds(
            anchor=f"{kernel}/nest{position}",
            depth=loop.depth,
            trip=max(0, loop.trip_count),
            outer_iters=max(1, outer),
            ops=ops,
            accesses=accesses,
            chain_latency=chain_latency(loop),
        ))
    return nests


def _collect_buffers(cdfg: CDFG) -> List[BufferInfo]:
    infos: "OrderedDict[int, BufferInfo]" = OrderedDict(
        (id(buffer), BufferInfo(
            buffer=buffer.name,
            elements=buffer.type.num_elements,
            element_bits=buffer.type.element.bit_width,
            total_accesses=count,
            small_alloc=small_alloc(buffer),
        ))
        for buffer, count in cdfg.accesses().items()
        if isinstance(buffer.type, MemRefType))
    directives = partition_directives(cdfg.function)
    for key, (_, scheme, factor) in directives.items():
        if key in infos:
            infos[key].scheme, infos[key].factor = scheme, factor
    return list(infos.values())


def _collect_traffic(facts: FunctionFacts) -> List[BufferTraffic]:
    per_buffer: "OrderedDict[str, BufferTraffic]" = OrderedDict()
    for access in facts.accesses:
        record = per_buffer.get(access.buffer)
        if record is None:
            record = BufferTraffic(buffer=access.buffer)
            per_buffer[access.buffer] = record
        issues = 1
        for trip in access.enclosing_trips:
            issues *= max(1, trip)
        element_bytes = max(1, access.element_bits // 8)
        record.accesses += 1
        record.bytes_naive += issues * element_bytes
        credit = access.reuse_factor if access.kind == "load" else 1
        record.bytes_moved += (issues // max(1, credit)) * element_bytes
    return list(per_buffer.values())


_BINDING = {"target": "loop pipeline", "chain": "recurrence chain"}


def nest_floors(
    bounds: StaticBounds, unroll: int = 1, strategy: str = "auto",
) -> Iterator[Tuple[NestBounds, int, str, int]]:
    """``(nest, ii, binding, cycles)`` floors per non-empty loop nest.

    What the scheduler charges a nest, from below: ports as the memory
    plan grants them at ``strategy`` for the widest body, the II floor
    of :meth:`NestBounds.ii_floor` with the resource that binds it,
    and :func:`~repro.core.timing.pipelined_cycles` at body depth 1.
    The roofline verdict, the FPGA cycle bound and ``repro perf`` all
    read this one iteration.
    """
    live = [(nest, body_copies(unroll, nest.trip))
            for nest in bounds.nests if nest.trip > 0]
    widest = max((copies for _, copies in live), default=1)
    ports = {info.buffer: info.ports(strategy, widest)
             for info in bounds.buffers}
    for nest, copies in live:
        ii, kind, buffer = nest.ii_floor(copies, ports)
        yield (
            nest, ii, _BINDING.get(kind) or f"memport:%{buffer}",
            nest.outer_iters * pipelined_cycles(nest.trip, copies, 1, ii),
        )


def _roofline(bounds: StaticBounds) -> Tuple[str, str]:
    """(verdict, binding resource) at default knobs (unroll 1)."""
    cycles = 0
    worst: Tuple[int, str] = (0, _BINDING["target"])
    for _, _, binding, nest_cycles in nest_floors(bounds):
        cycles += nest_cycles
        if nest_cycles >= worst[0]:
            worst = (nest_cycles, binding)
    compute_s = cycles / DEFAULT_CLOCK_HZ
    stream_s = bounds.arg_bytes / OpenCAPILink().bandwidth
    if stream_s > compute_s:
        return "memory-bound", "link bandwidth"
    return "compute-bound", worst[1]


def compute_kernel_bounds(
    module: Module, kernel: str
) -> Optional[StaticBounds]:
    """Derive :class:`StaticBounds` for one kernel (uncached)."""
    source = module.find_function(kernel)
    if source is None or source.is_declaration:
        return None
    lowered = _baseline_kernel_form(module, kernel)
    if lowered is None:
        return None
    bounds = compute_kernel_bounds_from_function(lowered)
    if bounds is not None:
        # the CPU model prices the tensor-form original
        bounds.work = float(estimate_work(source)[0])
        bounds.data_bytes = signature_bytes(source)
    return bounds


# ---------------------------------------------------------------------
# Memoization: in-process LRU + the persistent analysis cache.

_BOUNDS_MEMO = LRUCache(256)


def clear_bounds_memo() -> int:
    """Drop the in-process bounds LRU; returns entries dropped."""
    return _BOUNDS_MEMO.clear()


def kernel_bounds(
    module: Module, kernel: str, digest: Optional[str] = None
) -> Optional[StaticBounds]:
    """Digest-memoized :func:`compute_kernel_bounds`.

    Results live in an in-process LRU *and* the process-wide
    :class:`~repro.core.analysis.cache.AnalysisCache` (payload kind
    ``"perf"``), so a warm ``repro perf`` / bound-guided exploration
    never re-derives bounds for an unchanged kernel. Traffic is
    published as ``perf.cache_hits`` / ``perf.cache_misses`` /
    ``perf.bounds_computed``.
    """
    if digest is None:
        digest = module_digest(module)
    memo_key = (digest, kernel)
    cached = _BOUNDS_MEMO.get(memo_key)
    if cached is not None:
        return cached
    metrics = current_metrics()
    cache = analysis_cache()
    cache_key = AnalysisCache.perf_key(digest, kernel)
    bounds = cache.read(cache_key, partial(decode, StaticBounds))
    if bounds is not None:
        metrics.counter(
            "perf.cache_hits", "perf-analysis cache hits",
        ).inc(1, kernel=kernel)
        _BOUNDS_MEMO.put(memo_key, bounds)
        return bounds
    metrics.counter(
        "perf.cache_misses", "perf-analysis cache misses",
    ).inc(1, kernel=kernel)
    bounds = compute_kernel_bounds(module, kernel)
    if bounds is None:
        return None
    metrics.counter(
        "perf.bounds_computed", "static bounds derived from scratch",
    ).inc(1, kernel=kernel)
    cache.put(cache_key, encode(bounds))
    _BOUNDS_MEMO.put(memo_key, bounds)
    return bounds


# ---------------------------------------------------------------------
# Per-knob-point lower bounds (the explorer's pruning oracle).


def _structure_preserving(knobs) -> bool:
    """Knob points whose pass pipeline keeps the baseline loop bodies.

    Tiling, loop interchange, data-layout conversion, accumulation
    interleaving and DIFT instrumentation all restructure loops or
    bodies; for those the refined per-nest II model does not transfer
    and the crude iteration floor is used instead.
    """
    return (
        not knobs.tile
        and knobs.layout == "row_major"
        and knobs.matmul_order == "ijk"
        and knobs.interleave <= 1
        and not knobs.dift
    )


def fpga_cycles_lower_bound(bounds: StaticBounds, knobs) -> int:
    """A cycle count no schedule of this kernel can beat at ``knobs``."""
    unroll = max(1, int(knobs.unroll))
    if not _structure_preserving(knobs):
        # Any iteration-preserving restructuring still has to issue
        # every innermost iteration at best ``unroll`` at a time, one
        # initiation per cycle.
        total = sum(
            math.ceil(nest.total_iters / unroll)
            for nest in bounds.nests if nest.trip > 0
        )
        return max(1, total)
    return max(1, sum(
        cycles for _, _, _, cycles
        in nest_floors(bounds, unroll, knobs.memory_strategy)
    ))


# ---------------------------------------------------------------------
# PERF diagnostics (repro lint --only perf).


def check_module_perf(
    module: Module,
    diagnostics: Optional[Diagnostics] = None,
    facts: Optional[AnalysisFacts] = None,
) -> Diagnostics:
    """PERF001-PERF005 over the kernel-form functions of a module.

    Tensor-form kernels are skipped: their loop structure (and with it
    every performance property) is decided by DSE knobs, so static
    performance findings would be speculative. Kernel-form functions —
    hand-written ``.ir``, migrated front ends, lowered artifacts —
    carry their directives explicitly and get exact findings:

    * **PERF001** (error): an ``unroll`` directive provably
      over-subscribes an explicitly partitioned buffer's ports;
    * **PERF002** (warning): a load provably invariant in its inner
      loop(s) — hoist it into a register to cut traffic;
    * **PERF003** (warning): a non-affine access in an innermost loop
      defeats burst/banking inference;
    * **PERF004** (note): the kernel is memory-bound at default knobs
      (the attachment link binds before any compute resource);
    * **PERF005** (error): a ``pipeline_ii`` target provably
      unattainable (port pressure or recurrence chain exceeds it).
    """
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    for function in module.functions():
        if function.is_declaration:
            continue
        if any(op.dialect == "tensor" for op in function.walk()):
            continue
        if not any(op.name == "kernel.for" for op in function.walk()):
            continue
        function_facts = (
            facts.function(function.name) if facts is not None else None
        )
        if function_facts is None:
            function_facts = compute_function_facts(function)
        _check_function_perf(function, function_facts, diagnostics)
    return diagnostics


def _check_function_perf(
    function, facts: FunctionFacts, diagnostics: Diagnostics
) -> None:
    try:
        cdfg = cdfg_of(function)
    except HLSError:
        return
    directives = partition_directives(function)

    for loop in cdfg.innermost_loops():
        anchor = f"{function.name}/kernel.for"
        trip = loop.trip_count
        if trip <= 0:
            continue
        copies = body_copies(loop.unroll, trip)
        port_terms: List[Tuple[str, int, int]] = []
        for buffer, count in loop.accesses.items():
            directive = directives.get(id(buffer))
            if directive is None or directive[1] == "complete":
                continue
            _, scheme, factor = directive
            ports = ports_granted(scheme, factor, buffer.type.num_elements)
            demanded = port_demand(count, copies)
            if copies > 1 and demanded > ports:
                diagnostics.error(
                    "PERF001",
                    f"unroll {loop.unroll} demands {demanded} concurrent "
                    f"ports on %{buffer.name} ({count} accesses x "
                    f"{copies} copies) but {scheme} factor {factor} "
                    f"provides only {ports}",
                    anchor=anchor, analysis="perf",
                )
            port_terms.append((buffer.name, demanded, ports))

        if loop.pipelined:
            target = max(1, loop.pipeline_ii)
            ii, kind, pressed = initiation_interval(
                target, (), port_terms, chain_latency(loop),
                loop.interleave,
            )
            if kind != "target":
                cause = (
                    f"the loop-carried accumulation chain "
                    f"({ii} cycles)"
                    if kind == "chain" else
                    f"port pressure on %{pressed}"
                )
                diagnostics.error(
                    "PERF005",
                    f"pipeline_ii = {target} is provably unattainable: "
                    f"{cause} forces II >= {ii}",
                    anchor=anchor, analysis="perf",
                )

    for access in facts.accesses:
        if not access.enclosing_trips:
            continue
        if access.kind == "load" and access.reuse_factor > 1:
            diagnostics.warning(
                "PERF002",
                f"load on %{access.buffer} is invariant in its "
                f"innermost loop(s): hoisting it to a register saves "
                f"{access.reuse_factor - 1} of every "
                f"{access.reuse_factor} issues",
                anchor=access.anchor, analysis="perf",
            )
        if access.depends_on and access.depends_on[-1] and any(
            not dim.affine for dim in access.dims
        ):
            diagnostics.warning(
                "PERF003",
                f"{access.kind} on %{access.buffer} uses a non-affine "
                f"index expression: burst inference and conflict-free "
                f"banking are defeated",
                anchor=access.anchor, analysis="perf",
            )

    bounds = compute_kernel_bounds_from_function(function, cdfg, facts)
    if bounds is not None and bounds.verdict == "memory-bound":
        stream_gbps = OpenCAPILink().bandwidth / 1e9
        diagnostics.note(
            "PERF004",
            f"kernel is memory-bound at default knobs: streaming "
            f"{bounds.arg_bytes} argument bytes over the "
            f"{stream_gbps:.1f} GB/s attachment link dominates the "
            f"compute floor; unroll/partition knobs cannot help",
            anchor=f"{function.name}", analysis="perf",
        )


def compute_kernel_bounds_from_function(
    function, cdfg: Optional[CDFG] = None,
    facts: Optional[FunctionFacts] = None,
) -> Optional[StaticBounds]:
    """Bounds straight from a kernel-form function (no lowering)."""
    if cdfg is None:
        try:
            cdfg = cdfg_of(function)
        except HLSError:
            return None
    if facts is None:
        facts = compute_function_facts(function)
    work, _ = estimate_work(function)
    bounds = StaticBounds(
        kernel=function.name,
        work=float(work),
        data_bytes=signature_bytes(function),
        arg_bytes=argument_bytes(function),
        nests=_collect_nests(function.name, cdfg),
        traffic=_collect_traffic(facts),
        buffers=_collect_buffers(cdfg),
    )
    totals: Dict[str, int] = {}
    for nest in bounds.nests:
        for cls, count in nest.ops.items():
            totals[cls] = totals.get(cls, 0) + count * nest.total_iters
    bounds.op_counts = totals
    bounds.verdict, bounds.binding = _roofline(bounds)
    return bounds
