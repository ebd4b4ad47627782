"""Memory-partitioning legality and static bounds checking.

Runs over kernel-form functions (explicit ``kernel.for`` nests with
``kernel.load``/``kernel.store``) and checks, per buffer:

* MEM001 — any access whose affine index expression can fall outside
  the memref's shape (out-of-bounds);
* MEM002 — an explicit ``hw.partition`` directive whose bank count
  cannot serve the unrolled access pattern conflict-free (checked with
  the same cyclic mapping rule the HLS memory planner uses, plus a
  port-count bound);
* MEM003 — a wasteful directive (more banks than elements).

Index expressions are recovered symbolically: constants, loop
induction variables and ``addi``/``subi``/``muli`` combinations form
affine functions whose min/max over the loop ranges are exact. Non-
affine indices fall back to the interval facts of
:mod:`repro.core.analysis.absint` when available: their inferred
dependence sets place them under the right loop for the MEM002
port-demand check, and their value ranges are checked by MEM004 —
only a fully-unknown index remains a dynamic-check concern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.analysis.diagnostics import Diagnostics
from repro.core.hls.memory import cyclic_conflict_free
from repro.core.ir.dialects.hw import partition_directives
from repro.core.ir.module import Function, Module
from repro.core.ir.ops import Operation, Value
from repro.core.ir.types import MemRefType
from repro.core.timing import port_demand, ports_granted


@dataclass
class LoopInfo:
    """Range and directives of one kernel.for."""

    op: Operation
    lower: int
    upper: int
    step: int
    depth: int

    @property
    def last(self) -> int:
        """Largest induction value actually taken."""
        if self.upper <= self.lower:
            return self.lower
        trips = (self.upper - self.lower - 1) // self.step
        return self.lower + trips * self.step

    @property
    def unroll(self) -> int:
        """Unroll directive (1 when absent)."""
        return int(self.op.attr("unroll", 1) or 1)


@dataclass
class Affine:
    """offset + sum(coefficient * induction_var)."""

    offset: int = 0
    terms: Dict[int, int] = field(default_factory=dict)

    def add(self, other: "Affine") -> "Affine":
        terms = dict(self.terms)
        for key, coefficient in other.terms.items():
            terms[key] = terms.get(key, 0) + coefficient
        return Affine(self.offset + other.offset, terms)

    def scale(self, factor: int) -> "Affine":
        return Affine(
            self.offset * factor,
            {key: coefficient * factor
             for key, coefficient in self.terms.items()},
        )

    def bounds(self, loops: Dict[int, LoopInfo]) -> Tuple[int, int]:
        """(min, max) over the ranges of the referenced loops."""
        low = high = self.offset
        for key, coefficient in self.terms.items():
            info = loops[key]
            values = (coefficient * info.lower, coefficient * info.last)
            low += min(values)
            high += max(values)
        return low, high


def _collect_loops(function: Function) -> Dict[int, LoopInfo]:
    """Map id(induction var) -> LoopInfo for every kernel.for."""
    loops: Dict[int, LoopInfo] = {}

    def visit(op: Operation, depth: int) -> None:
        if op.name == "kernel.for":
            block = op.regions[0].blocks[0]
            if block.arguments:
                loops[id(block.arguments[0])] = LoopInfo(
                    op=op,
                    lower=int(op.attr("lower", 0)),
                    upper=int(op.attr("upper", 0)),
                    step=int(op.attr("step", 1)),
                    depth=depth,
                )
            depth += 1
        for region in op.regions:
            for block in region.blocks:
                for inner in block.operations:
                    visit(inner, depth)

    for block in function.body.blocks:
        for op in block.operations:
            visit(op, 0)
    return loops


def _affine_of(value: Value,
               loops: Dict[int, LoopInfo]) -> Optional[Affine]:
    """Recover an affine expression for an index value, or None."""
    if id(value) in loops:
        return Affine(0, {id(value): 1})
    producer = value.producer
    if producer is None:
        return None
    if producer.name == "kernel.const":
        raw = producer.attr("value")
        if isinstance(raw, (int, float)) and int(raw) == raw:
            return Affine(int(raw), {})
        return None
    if producer.name in ("kernel.addi", "kernel.subi"):
        lhs = _affine_of(producer.operands[0], loops)
        rhs = _affine_of(producer.operands[1], loops)
        if lhs is None or rhs is None:
            return None
        if producer.name == "kernel.subi":
            rhs = rhs.scale(-1)
        return lhs.add(rhs)
    if producer.name == "kernel.muli":
        lhs = _affine_of(producer.operands[0], loops)
        rhs = _affine_of(producer.operands[1], loops)
        if lhs is None or rhs is None:
            return None
        if not lhs.terms:
            return rhs.scale(lhs.offset)
        if not rhs.terms:
            return lhs.scale(rhs.offset)
        return None
    return None


@dataclass
class Access:
    """One load/store against a buffer, with recovered indices."""

    op: Operation
    buffer: Value
    memref: MemRefType
    indices: List[Optional[Affine]]

    def flat(self) -> Optional[Affine]:
        """Row-major linearized address expression."""
        total = Affine(0, {})
        stride = 1
        for dimension, index in zip(
            reversed(self.memref.shape), reversed(self.indices)
        ):
            if index is None:
                return None
            total = total.add(index.scale(stride))
            stride *= dimension
        return total


def _collect_accesses(function: Function,
                      loops: Dict[int, LoopInfo]) -> List[Access]:
    accesses: List[Access] = []
    for op in function.walk():
        if op.name == "kernel.load":
            buffer, indices = op.operands[0], op.operands[1:]
        elif op.name == "kernel.store":
            buffer, indices = op.operands[1], op.operands[2:]
        else:
            continue
        memref = buffer.type
        if not isinstance(memref, MemRefType):
            continue
        accesses.append(Access(
            op=op,
            buffer=buffer,
            memref=memref,
            indices=[_affine_of(index, loops) for index in indices],
        ))
    return accesses


def _innermost_loop(
    access: Access,
    loops: Dict[int, LoopInfo],
    op_vars: Optional[Dict[int, frozenset]] = None,
) -> Optional[LoopInfo]:
    """Deepest loop whose induction var the access references.

    Affine term sets are used when recovered; otherwise the interval
    facts' dependence sets (``op_vars``) answer for non-affine indices
    such as ``i*i``.
    """
    best: Optional[LoopInfo] = None
    for index in access.indices:
        if index is None:
            continue
        for key in index.terms:
            info = loops[key]
            if best is None or info.depth > best.depth:
                best = info
    if best is None and op_vars is not None:
        for key in op_vars.get(id(access.op), ()):  # absint dependence
            info = loops.get(key)
            if info is not None and (
                best is None or info.depth > best.depth
            ):
                best = info
    return best


def _check_bounds(function: Function, accesses: List[Access],
                  loops: Dict[int, LoopInfo],
                  diagnostics: Diagnostics) -> None:
    for access in accesses:
        for dimension, index in zip(access.memref.shape, access.indices):
            if index is None:
                continue
            low, high = index.bounds(loops)
            if low < 0 or high >= dimension:
                diagnostics.error(
                    "MEM001",
                    f"{access.op.name} on %{access.buffer.name} indexes "
                    f"[{low}, {high}] outside dimension of size "
                    f"{dimension}",
                    anchor=f"{function.name}/{access.op.name}",
                    analysis="partition",
                )


def _check_partitions(function: Function, accesses: List[Access],
                      loops: Dict[int, LoopInfo],
                      diagnostics: Diagnostics,
                      op_vars: Optional[Dict[int, frozenset]] = None,
                      ) -> None:
    directives = partition_directives(function)
    if not directives:
        return
    by_buffer: Dict[int, List[Access]] = {}
    for access in accesses:
        by_buffer.setdefault(id(access.buffer), []).append(access)

    for key, (buffer, scheme, factor) in directives.items():
        memref = buffer.type
        if not isinstance(memref, MemRefType):
            continue
        if factor > memref.num_elements:
            diagnostics.warning(
                "MEM003",
                f"partition factor {factor} exceeds the "
                f"{memref.num_elements} elements of %{buffer.name}",
                anchor=f"{function.name}/hw.partition",
                analysis="partition",
            )
        if scheme == "complete":
            continue
        buffer_accesses = by_buffer.get(key, [])
        if not buffer_accesses:
            continue
        # group accesses by the loop they unroll under
        by_loop: Dict[int, List[Access]] = {}
        loop_for_group: Dict[int, LoopInfo] = {}
        for access in buffer_accesses:
            info = _innermost_loop(access, loops, op_vars)
            if info is not None and info.unroll > 1:
                by_loop.setdefault(id(info.op), []).append(access)
                loop_for_group[id(info.op)] = info
        for group_key, grouped in by_loop.items():
            info = loop_for_group[group_key]
            unroll = info.unroll
            ports = ports_granted(scheme, factor, memref.num_elements)
            # copies = the raw directive, as the scheduler charges it
            demanded = port_demand(len(grouped), unroll)
            if demanded > ports:
                diagnostics.warning(
                    "MEM002",
                    f"%{buffer.name}: {len(grouped)} accesses x unroll "
                    f"{unroll} need {demanded} ports but {scheme} "
                    f"partition factor {factor} provides {ports}",
                    anchor=f"{function.name}/hw.partition",
                    analysis="partition",
                )
                continue
            if scheme != "cyclic":
                continue
            offsets: List[int] = []
            stride: Optional[int] = None
            affine_ok = True
            for access in grouped:
                flat = access.flat()
                if flat is None:
                    affine_ok = False
                    break
                ivar = id(info.op.regions[0].blocks[0].arguments[0])
                offsets.append(flat.offset)
                coefficient = flat.terms.get(ivar, 0) * info.step
                if stride is None:
                    stride = coefficient
                elif stride != coefficient:
                    affine_ok = False
                    break
            if not affine_ok or stride is None:
                continue
            if not cyclic_conflict_free(offsets, stride, unroll, factor):
                diagnostics.warning(
                    "MEM002",
                    f"%{buffer.name}: cyclic partition factor {factor} "
                    f"maps unrolled accesses (stride {stride}, offsets "
                    f"{sorted(offsets)}) onto colliding banks",
                    anchor=f"{function.name}/hw.partition",
                    analysis="partition",
                )


def check_function_partitioning(
    function: Function,
    diagnostics: Optional[Diagnostics] = None,
    facts=None,
) -> Diagnostics:
    """Bounds + partition-legality checks for one function.

    ``facts`` is an optional
    :class:`~repro.core.analysis.absint.FunctionFacts`: its dependence
    sets extend the MEM002 bank-conflict check to accesses whose
    indices are not syntactically affine.
    """
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    if function.is_declaration:
        return diagnostics
    loops = _collect_loops(function)
    accesses = _collect_accesses(function, loops)
    if not accesses:
        return diagnostics
    op_vars = facts.op_vars if facts is not None else None
    _check_bounds(function, accesses, loops, diagnostics)
    _check_partitions(function, accesses, loops, diagnostics,
                      op_vars=op_vars)
    return diagnostics


def check_module_partitioning(
    module: Module,
    diagnostics: Optional[Diagnostics] = None,
    facts=None,
) -> Diagnostics:
    """Partition-legality checks for every function of a module.

    ``facts`` is an optional
    :class:`~repro.core.analysis.absint.AnalysisFacts` shared with the
    absint pass (see :func:`repro.core.analysis.analyze_module`).
    """
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    for function in module.functions():
        function_facts = (
            facts.function(function.name) if facts is not None else None
        )
        check_function_partitioning(function, diagnostics,
                                    facts=function_facts)
    return diagnostics
