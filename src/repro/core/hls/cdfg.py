"""Control/data-flow graph extraction from kernel-form functions.

The CDFG is a tree of :class:`LoopNode` mirroring the loop nests, each
carrying the straight-line operations of its body as :class:`DFGNode`
entries with explicit dependence edges:

* SSA (value) dependences between operations in the same body;
* memory dependences: a load after a store (or store after store) to
  the same buffer is ordered conservatively unless their constant
  index distance proves independence.

The tree holds the kernel's structure only: what no synthesis option
changes. :func:`cdfg_of` builds it once per version of the function's
module, for HLS and the performance analyzer alike;
:meth:`CDFG.directed` applies an unroll / interleave option set to a
copy of the tree that shares the bodies, and the facts derived from a
body alone (:meth:`LoopNode.fact`) are computed once for every copy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.ir.dialects.kernel import loop_range
from repro.core.ir.module import Function
from repro.core.ir.ops import Operation, Value
from repro.core.timing import interleave_cap, unroll_directive
from repro.errors import HLSError

#: Operation kinds treated as memory accesses.
MEMORY_OPS = ("kernel.load", "kernel.store")


@dataclass
class DFGNode:
    """One operation inside a loop body."""

    op: Operation
    index: int  # position in body order
    predecessors: List["DFGNode"] = field(default_factory=list)
    successors: List["DFGNode"] = field(default_factory=list)

    def buffer(self) -> Optional[Value]:
        """The memref a memory op touches, else None."""
        if self.op.name == "kernel.load":
            return self.op.operands[0]
        if self.op.name == "kernel.store":
            return self.op.operands[1]
        return None

    def indices(self) -> Tuple[Value, ...]:
        """Index operands of a memory op."""
        if self.op.name == "kernel.load":
            return tuple(self.op.operands[1:])
        if self.op.name == "kernel.store":
            return tuple(self.op.operands[2:])
        return ()

    def __repr__(self) -> str:
        return f"<dfg {self.index}:{self.op.name}>"


@dataclass
class LoopNode:
    """A kernel.for in the loop tree, with the directives HLS honours:
    ``unroll`` body copies, a target ``pipeline_ii`` (``None`` when
    the loop is not pipelined) and ``interleave`` partial sums."""

    op: Optional[Operation]  # None for the virtual root
    trip_count: int
    depth: int
    body: List[DFGNode] = field(default_factory=list)
    children: List["LoopNode"] = field(default_factory=list)
    unroll: int = 1
    pipeline_ii: Optional[int] = None
    interleave: int = 1
    facts: Dict[str, Any] = field(
        default_factory=dict, repr=False, compare=False)

    def fact(self, name: str, compute: Callable[["LoopNode"], Any]) -> Any:
        """``compute(self)``, kept under ``name``: a fact of the body
        alone, shared with every directed copy of this loop."""
        if name not in self.facts:
            self.facts[name] = compute(self)
        return self.facts[name]

    @property
    def accesses(self) -> Dict[Value, int]:
        """Accesses per buffer in one pass over this loop's own body,
        in first-access order."""
        return self.fact("accesses", lambda loop: Counter(
            buffer for buffer in map(DFGNode.buffer, loop.body)
            if buffer is not None))

    @property
    def pipelined(self) -> bool:
        """True when a pipeline directive is present."""
        return self.pipeline_ii is not None

    @property
    def is_innermost(self) -> bool:
        """True when the loop contains no nested loops."""
        return not self.children

    def walk(self):
        """Yield this loop and all nested loops, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class CDFG:
    """The full control/data-flow graph of one function."""

    function: Function
    root: LoopNode

    def innermost_loops(self) -> List[LoopNode]:
        """All innermost loops, in program order."""
        return [loop for loop in self.root.walk()
                if loop.op is not None and loop.is_innermost]

    def all_loops(self) -> List[LoopNode]:
        """All real loops (excluding the virtual root)."""
        return [loop for loop in self.root.walk() if loop.op is not None]

    def accesses(self) -> Dict[Value, int]:
        """Accesses per buffer over every loop body, in first-access
        order."""
        counts: Dict[Value, int] = Counter()
        for loop in self.root.walk():
            counts.update(loop.accesses)
        return counts

    def directed(self, unroll: Optional[int],
                 interleave: Optional[int]) -> "CDFG":
        """A copy of the loop tree, sharing the bodies, whose innermost
        loops take these factors instead of their ops' attributes.

        A factor applies by the rule its pass applies to the IR
        (:class:`~repro.core.ir.passes.LoopDirectivesPass`,
        :class:`~repro.core.ir.passes.AccumulationInterleavePass`), so
        synthesis with the factor equals synthesis of the annotated IR
        and the function is never written to. ``None`` keeps the
        attributes.
        """
        def copy(loop: LoopNode) -> LoopNode:
            loop = replace(loop, children=list(map(copy, loop.children)))
            if loop.op is None or not loop.is_innermost:
                return loop
            if unroll is not None:
                loop.unroll, loop.pipeline_ii = unroll_directive(
                    unroll, loop.trip_count)
            if interleave is not None and loop_carried_chain(loop):
                loop.interleave = interleave_cap(interleave, loop.trip_count)
            return loop
        return CDFG(self.function, copy(self.root))


def build_cdfg(function: Function) -> CDFG:
    """Extract the CDFG of a kernel-form function.

    Each loop takes its directives from its op's ``unroll`` /
    ``pipeline_ii`` / ``interleave`` attributes.
    """
    if function.is_declaration:
        raise HLSError(
            f"cannot synthesize declaration {function.name!r}"
        )
    for op in function.walk():
        if op.dialect == "tensor":
            raise HLSError(
                f"function {function.name!r} still contains tensor ops; "
                f"run LowerTensorPass first"
            )
    root = LoopNode(op=None, trip_count=1, depth=0)
    _populate(function.entry_block.operations, root)
    return CDFG(function, root)


def cdfg_of(function: Function) -> CDFG:
    """The CDFG of ``function``, built once per version of its module:
    kept on the module's root op the way
    :func:`~repro.core.ir.digest.module_digest` keeps its digest, so
    any in-place edit of the module builds it afresh. Every reader
    shares it and none writes it (:meth:`CDFG.directed` copies)."""
    root = function.op.root()
    memo = getattr(root, "_cdfg_memo", None)
    if memo is None or memo[0] != root.version:
        memo = root._cdfg_memo = (root.version, {})
    if function.name not in memo[1]:
        memo[1][function.name] = build_cdfg(function)
    return memo[1][function.name]


def _populate(operations, parent: LoopNode) -> None:
    for op in operations:
        if op.name == "kernel.for":
            ii = op.attr("pipeline_ii")
            loop = LoopNode(
                op=op, trip_count=loop_range(op)[3], depth=parent.depth + 1,
                unroll=max(1, int(op.attr("unroll", 1))),
                pipeline_ii=None if ii is None else int(ii),
                interleave=max(1, int(op.attr("interleave", 1))),
            )
            parent.children.append(loop)
            body_block = op.regions[0].blocks[0]
            _populate(body_block.operations, loop)
        elif op.name in ("kernel.yield", "func.return"):
            continue
        else:
            node = DFGNode(op=op, index=len(parent.body))
            parent.body.append(node)
    _wire_dependences(parent)


def _wire_dependences(loop: LoopNode) -> None:
    by_result: Dict[int, DFGNode] = {}
    for node in loop.body:
        for result in node.op.results:
            by_result[id(result)] = node
    last_store: Dict[int, DFGNode] = {}
    for node in loop.body:
        for operand in node.op.operands:
            producer = by_result.get(id(operand))
            if producer is not None and producer is not node:
                _add_edge(producer, node)
        buffer = node.buffer()
        if buffer is None:
            continue
        key = id(buffer)
        if node.op.name == "kernel.load":
            prior = last_store.get(key)
            if prior is not None and not _provably_disjoint(prior, node):
                _add_edge(prior, node)
        else:  # store
            prior = last_store.get(key)
            if prior is not None:
                _add_edge(prior, node)
            last_store[key] = node


def _add_edge(source: DFGNode, target: DFGNode) -> None:
    if target not in source.successors:
        source.successors.append(target)
        target.predecessors.append(source)


def _provably_disjoint(store: DFGNode, load: DFGNode) -> bool:
    """True when a store and load clearly touch different elements.

    Conservative: only constant indices that differ prove disjointness;
    identical index value tuples prove a dependence; anything symbolic
    is treated as potentially aliasing (returns False).
    """
    store_idx = store.indices()
    load_idx = load.indices()
    if len(store_idx) != len(load_idx):
        return False
    for a, b in zip(store_idx, load_idx):
        const_a, const_b = _const_of(a), _const_of(b)
        if const_a is None or const_b is None:
            return False
        if const_a != const_b:
            return True
    return False  # identical constant indices: true dependence


def _const_of(value: Value) -> Optional[float]:
    producer = value.producer
    if producer is not None and producer.name == "kernel.const":
        return producer.attr("value")
    return None


def loop_carried_chain(loop: LoopNode) -> List[DFGNode]:
    """The load→…→store recurrence chain on one buffer, if present.

    Detects the accumulation idiom (``c = load; ...; store c'``) that
    limits pipelining: a load and a store on the same buffer with the
    same index expressions, connected through arithmetic. The
    dependence is only *loop-carried* when the shared indices are
    invariant in this loop — if the loop's own induction variable
    addresses the element, consecutive iterations touch different
    elements (e.g. the ikj matmul form) and the pipeline is free.
    Returns the SSA path from the load to the store, or an empty list.
    """
    return loop.fact("chain", _find_chain)


def _find_chain(loop: LoopNode) -> List[DFGNode]:
    loop_iv = None
    if loop.op is not None and loop.op.regions:
        blocks = loop.op.regions[0].blocks
        if blocks and blocks[0].arguments:
            loop_iv = blocks[0].arguments[0]

    def depends_on_iv(value: Value) -> bool:
        if loop_iv is None:
            return False
        frontier = [value]
        visited = set()
        while frontier:
            current = frontier.pop()
            if current is loop_iv:
                return True
            if id(current) in visited:
                continue
            visited.add(id(current))
            if current.producer is not None:
                frontier.extend(current.producer.operands)
        return False

    for store in loop.body:
        if store.op.name != "kernel.store":
            continue
        buffer = store.buffer()
        for load in loop.body:
            if load.op.name != "kernel.load":
                continue
            if load.buffer() is not buffer:
                continue
            if load.indices() != store.indices():
                continue
            if any(depends_on_iv(index) for index in store.indices()):
                continue  # different element every iteration
            path = _ssa_path(load, store)
            if path:
                return path
    return []


def _ssa_path(source: DFGNode, target: DFGNode) -> List[DFGNode]:
    """Shortest dependence path source→target, or empty list."""
    frontier = [(source, [source])]
    visited = {id(source)}
    while frontier:
        node, path = frontier.pop(0)
        if node is target:
            return path
        for successor in node.successors:
            if id(successor) not in visited:
                visited.add(id(successor))
                frontier.append((successor, path + [successor]))
    return []
