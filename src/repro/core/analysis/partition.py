"""Memory-partitioning legality and static bounds checking.

Three emitters over the facts one sweep of the abstract interpreter
(:mod:`repro.core.analysis.absint`) records for a kernel-form
function — this module never reads loops or accesses off the IR
itself, only the ``hw.partition`` directives through their one reader:

* MEM001 — an access whose affine index expression can fall outside
  the memref's shape. The range of an affine index is exact, so this
  is a proof; accesses in a zero-trip loop are dead (LINT004) and are
  not checked;
* MEM002 — an explicit ``hw.partition`` directive whose bank count
  cannot serve the unrolled access pattern conflict-free: a port-count
  bound over :func:`~repro.core.analysis.absint.accesses_by_loop` (the
  grouping ``partition_conflict`` prices, so lint, pruner and
  cost-model gate judge one access pattern one way), then the cyclic
  mapping rule the HLS memory planner uses when every address is
  affine;
* MEM003 — a wasteful directive (more banks than elements).

Non-affine indices are MEM004's: their value ranges come from the same
sweep and are reported by
:func:`~repro.core.analysis.absint.check_module_ranges`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.analysis.absint import (
    AnalysisFacts,
    FunctionFacts,
    accesses_by_loop,
    compute_function_facts,
)
from repro.core.hls.memory import cyclic_conflict_free
from repro.core.ir.dialects.hw import partition_directives
from repro.core.ir.module import Function, Module
from repro.core.ir.types import MemRefType
from repro.core.timing import port_demand, ports_granted
from repro.diagnostics import Diagnostics


def _check_bounds(facts: FunctionFacts, diagnostics: Diagnostics) -> None:
    for access in facts.accesses:
        for dim in access.dims:
            if dim.affine and not dim.in_bounds:
                diagnostics.error(
                    "MEM001",
                    f"kernel.{access.kind} on %{access.buffer} indexes "
                    f"[{dim.lo}, {dim.hi}] outside dimension of size "
                    f"{dim.size}",
                    anchor=access.anchor, analysis="partition",
                )


def _check_partitions(function: Function, facts: FunctionFacts,
                      diagnostics: Diagnostics) -> None:
    anchor = f"{function.name}/hw.partition"
    for buffer, scheme, factor in partition_directives(function).values():
        memref = buffer.type
        if not isinstance(memref, MemRefType):
            continue
        if factor > memref.num_elements:
            diagnostics.warning(
                "MEM003",
                f"partition factor {factor} exceeds the "
                f"{memref.num_elements} elements of %{buffer.name}",
                anchor=anchor, analysis="partition",
            )
        if scheme == "complete":
            continue
        ports = ports_granted(scheme, factor, memref.num_elements)
        for position, grouped in accesses_by_loop(
            facts, buffer.name
        ).items():
            loop = facts.loops[position]
            if loop.unroll <= 1:
                continue
            # copies = the raw directive, as the scheduler charges it
            demanded = port_demand(len(grouped), loop.unroll)
            if demanded > ports:
                diagnostics.warning(
                    "MEM002",
                    f"%{buffer.name}: {len(grouped)} accesses x unroll "
                    f"{loop.unroll} need {demanded} ports but {scheme} "
                    f"partition factor {factor} provides {ports}",
                    anchor=anchor, analysis="partition",
                )
                continue
            flats = [access.flat for access in grouped]
            if scheme != "cyclic" or None in flats:
                continue
            strides = {coefficient * loop.step for _, coefficient in flats}
            if len(strides) != 1:
                continue
            offsets = [offset for offset, _ in flats]
            (stride,) = strides
            if not cyclic_conflict_free(
                offsets, stride, loop.unroll, factor
            ):
                diagnostics.warning(
                    "MEM002",
                    f"%{buffer.name}: cyclic partition factor {factor} "
                    f"maps unrolled accesses (stride {stride}, offsets "
                    f"{sorted(offsets)}) onto colliding banks",
                    anchor=anchor, analysis="partition",
                )


def check_function_partitioning(
    function: Function,
    diagnostics: Optional[Diagnostics] = None,
    facts: Optional[FunctionFacts] = None,
) -> Diagnostics:
    """Bounds + partition-legality checks for one function.

    ``facts`` are the function's interval facts when the caller already
    has them (see :func:`repro.core.analysis.analyze_module`); they are
    computed here otherwise.
    """
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    if facts is None:
        facts = compute_function_facts(function)
    if facts.accesses:  # no live access, no finding (MEM003 included)
        _check_bounds(facts, diagnostics)
        _check_partitions(function, facts, diagnostics)
    return diagnostics


def check_module_partitioning(
    module: Module,
    diagnostics: Optional[Diagnostics] = None,
    facts: Optional[AnalysisFacts] = None,
) -> Diagnostics:
    """Partition-legality checks for every function of a module."""
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    for function in module.functions():
        check_function_partitioning(
            function, diagnostics,
            facts=facts.function(function.name) if facts is not None
            else None,
        )
    return diagnostics
