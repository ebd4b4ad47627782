"""The accelerator timing model: every term stated once.

The memory planner, the loop scheduler, the static performance
analyzer, the partition lints and ``repro perf`` all reason about the
same pipelined-loop arithmetic: how many ports a bank layout grants,
how many ports an unrolled body demands, which term bounds the
initiation interval, how many cycles a pipelined loop takes. Each of
those terms lives here and nowhere else; the layers pass their own
inputs in.

The scheduler passes *every* term (functional-unit demand, the ports
of every buffer, the recurrence chain, the scheduled body depth). The
analyzer passes a *subset* (no unit terms, register-partitioned
buffers left out, ``depth = 1``). Both results are a ``max`` / a sum
over the terms they were given, so "static bound <= scheduled cost"
holds by construction rather than by keeping copies in step.

One input is deliberately visible at every call site: ``copies``, the
number of loop-body copies an ``unroll`` directive creates. The
scheduler and the MEM002 lint pass the raw directive; the analyzers
pass :func:`body_copies`, which clamps it to the trip count. The two
disagree when ``trip < unroll``; harmonising them moves priced fronts
and is tracked in ROADMAP item 3(d).

This module imports nothing but :mod:`math`, so any layer — including
the analyses reachable from the IR verifier — can import it at top
level.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Optional, Tuple

#: Ports of one BRAM bank (true dual port).
PORTS_PER_BANK = 2
#: Local buffers at or below this element count become registers.
COMPLETE_PARTITION_LIMIT = 64
#: The memory planner never banks a buffer wider than this.
MAX_BANKING_FACTOR = 64


def partition_for(
    directive: Optional[Tuple[str, int]],
    strategy: str,
    small_alloc: bool,
    elements: int,
    demanded_ports: int,
) -> Tuple[str, int]:
    """``(scheme, factor)`` the memory plan gives one buffer.

    An explicit ``hw.partition`` ``directive`` wins; strategy ``none``
    keeps a single bank; a small local scratch buffer partitions
    completely into registers; otherwise the bank count doubles until
    its ports cover ``demanded_ports`` (the port demand at one
    initiation per cycle; capped at :data:`MAX_BANKING_FACTOR`) and
    the scheme is ``strategy`` itself — ``auto`` is left for the
    planner to resolve by data layout.
    """
    if directive is not None:
        return directive
    if strategy == "none":
        return "cyclic", 1
    if small_alloc:
        return "complete", elements
    factor = 1
    while (factor * PORTS_PER_BANK < demanded_ports
           and factor < MAX_BANKING_FACTOR):
        factor *= 2
    return strategy, factor


def ports_granted(scheme: str, factor: int, elements: int) -> int:
    """Concurrent ports a bank layout provides.

    Registers (``complete``) serve every element at once; banked
    schemes serve :data:`PORTS_PER_BANK` accesses per bank.
    """
    if scheme == "complete":
        return elements
    return max(1, factor) * PORTS_PER_BANK


def body_copies(unroll: int, trip: int) -> int:
    """Body copies an unroll directive really creates (<= the trips)."""
    return min(max(1, unroll), trip) if trip > 0 else 1


def unroll_directive(unroll: int, trip: int) -> Tuple[int, int]:
    """``(unroll, pipeline_ii)`` an unroll factor sets on an innermost
    loop of ``trip`` iterations: the factor clamped to the trips
    (:func:`body_copies`), pipelined at an II of 1."""
    return body_copies(unroll, trip), 1


def interleave_cap(factor: int, trip: int) -> int:
    """Partial sums an interleave factor keeps in an accumulation loop
    of ``trip`` iterations: no more than the trips, at least one."""
    return min(factor, max(1, trip))


def port_demand(accesses: int, copies: int) -> int:
    """Concurrent ports ``copies`` body copies demand on one buffer."""
    return accesses * copies


def initiation_interval(
    target: int,
    unit_terms: Iterable[Tuple[Any, int, int]],
    port_terms: Iterable[Tuple[Any, int, int]],
    chain: int,
    interleave: int,
) -> Tuple[int, str, Any]:
    """``(ii, kind, name)``: the II and the term that bound it.

    ``ii`` is the max of the ``target`` II, ``ceil(chain /
    interleave)`` for the loop-carried recurrence (``interleave``
    partial sums stretch the recurrence distance), and ``ceil(demand /
    supply)`` for every ``(name, demand, supply)`` functional-unit and
    memory-port term. ``kind`` is ``"target"``, ``"chain"``, ``"unit"``
    or ``"port"``; ``name`` is the caller's label of the binding unit
    class or buffer (``""`` for the first two kinds).
    Ties go to the earlier term in that order, then to the first
    ``(name, ...)`` listed.
    """
    ii, kind, name = max(1, target), "target", ""
    recurrence = math.ceil(chain / interleave)
    if recurrence > ii:
        ii, kind = recurrence, "chain"
    for term_kind, terms in (("unit", unit_terms), ("port", port_terms)):
        for label, demand, supply in terms:
            term = math.ceil(demand / supply)
            if term > ii:
                ii, kind, name = term, term_kind, label
    return ii, kind, name


def pipelined_cycles(trips: int, copies: int, depth: int, ii: int) -> int:
    """Cycles of a pipelined loop: fill ``depth``, then one body per II.

    ``copies`` bodies issue together, so ``ceil(trips / copies)``
    initiations cover ``trips`` iterations.
    """
    if trips <= 0:
        return 0
    return depth + (math.ceil(trips / copies) - 1) * ii
