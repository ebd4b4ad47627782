"""Generic forward/backward dataflow fixpoint engine over the IR.

Analyses assign every SSA :class:`~repro.core.ir.ops.Value` an element
of a join-semilattice and run transfer functions over the operations
of a function until the assignment stabilizes. The engine understands
the structured control flow of the unified IR: single-block function
bodies with ``kernel.for`` / ``workflow.pipeline`` regions nested to
any depth. Loops are iterated to a fixpoint so analyses that model
memory cells (keyed by the buffer value) see loop-carried facts.

Two concrete walkers are provided:

* :class:`ForwardAnalysis` — facts flow from definitions to uses
  (taint propagation, constant ranges);
* :class:`BackwardAnalysis` — facts flow from uses to definitions
  (liveness, dead-value detection).

Subclasses override :meth:`boundary` to seed facts and
:meth:`transfer` to propagate them across one operation; the engine
owns ordering, region recursion and termination.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterable, List, Optional, TypeVar

from repro.core.ir.dialects import op_is_pure, op_is_terminator
from repro.core.ir.module import Function
from repro.core.ir.ops import Operation, Value

T = TypeVar("T")

#: Safety valve: structured loops converge in two passes; anything
#: beyond this means a transfer function is not monotone.
MAX_ITERATIONS = 16


class Lattice(Generic[T]):
    """A join-semilattice: bottom element plus a join operator."""

    def bottom(self) -> T:
        """The least element (no information)."""
        raise NotImplementedError

    def join(self, left: T, right: T) -> T:
        """Least upper bound of two elements."""
        raise NotImplementedError


class SetLattice(Lattice[frozenset]):
    """Powerset lattice: join is set union (used for taint labels)."""

    def bottom(self) -> frozenset:
        return frozenset()

    def join(self, left: frozenset, right: frozenset) -> frozenset:
        return left | right


class FlagLattice(Lattice[bool]):
    """Two-point lattice: join is logical or (used for liveness)."""

    def bottom(self) -> bool:
        return False

    def join(self, left: bool, right: bool) -> bool:
        return left or right


def linearize(function: Function) -> List[Operation]:
    """Every operation of the body in source (pre-)order."""
    return list(function.walk())


class DataflowState(Generic[T]):
    """Value -> lattice element assignment with change tracking."""

    def __init__(self, lattice: Lattice[T]):
        self.lattice = lattice
        self._facts: Dict[int, T] = {}
        self._values: Dict[int, Value] = {}
        self.changed = False

    def get(self, value: Value) -> T:
        """Current fact for a value (bottom when never set)."""
        return self._facts.get(id(value), self.lattice.bottom())

    def update(self, value: Value, fact: T) -> None:
        """Join ``fact`` into the value's current fact."""
        old = self.get(value)
        new = self.lattice.join(old, fact)
        if new != old:
            self._facts[id(value)] = new
            self._values[id(value)] = value
            self.changed = True

    def set(self, value: Value, fact: T) -> None:
        """Overwrite the value's fact (for strong updates)."""
        if self.get(value) != fact:
            self._facts[id(value)] = fact
            self._values[id(value)] = value
            self.changed = True

    def facts(self) -> Dict[Value, T]:
        """Snapshot of all non-bottom facts."""
        return {
            self._values[key]: fact
            for key, fact in self._facts.items()
            if fact != self.lattice.bottom()
        }


class DataflowAnalysis(Generic[T]):
    """Base fixpoint driver; subclass Forward/BackwardAnalysis."""

    #: Subclasses set the lattice the state is built over.
    lattice: Lattice[T] = SetLattice()  # type: ignore[assignment]

    def __init__(self):
        self.state: DataflowState[T] = DataflowState(self.lattice)

    # -- hooks ---------------------------------------------------------

    def boundary(self, function: Function) -> None:
        """Seed facts before the first sweep (e.g. argument taint)."""

    def transfer(self, op: Operation) -> None:
        """Propagate facts across one operation."""
        raise NotImplementedError

    # -- driver --------------------------------------------------------

    def _ordered(self, function: Function) -> Iterable[Operation]:
        raise NotImplementedError

    def run(self, function: Function) -> DataflowState[T]:
        """Iterate to fixpoint; returns the final state."""
        self.state = DataflowState(self.lattice)
        self.boundary(function)
        operations = list(self._ordered(function))
        for _ in range(MAX_ITERATIONS):
            self.state.changed = False
            for op in operations:
                self.transfer(op)
            if not self.state.changed:
                break
        return self.state


class ForwardAnalysis(DataflowAnalysis[T]):
    """Facts flow def -> use: ops visited in source order."""

    def _ordered(self, function: Function) -> Iterable[Operation]:
        return linearize(function)


class BackwardAnalysis(DataflowAnalysis[T]):
    """Facts flow use -> def: ops visited in reverse source order."""

    def _ordered(self, function: Function) -> Iterable[Operation]:
        return reversed(linearize(function))


class TaintPropagation(ForwardAnalysis[frozenset]):
    """Reference forward client: label propagation with clearing ops.

    ``seed`` maps values to initial label sets; the results of
    ``secure.declassify`` and ``secure.encrypt`` drop all labels,
    every other op unions the labels of its operands into its results.
    Memory is modeled per buffer: a store taints the whole buffer value
    so later loads (also through loops) observe the labels.
    """

    _CLEARING = frozenset({"secure.declassify", "secure.encrypt"})

    def __init__(self, seed: Optional[Dict[int, frozenset]] = None):
        super().__init__()
        self._seed = dict(seed or {})

    def boundary(self, function: Function) -> None:
        for op in function.walk():
            for value in op.results:
                labels = self._seed.get(id(value))
                if labels:
                    self.state.update(value, frozenset(labels))
        for argument in function.arguments:
            labels = self._seed.get(id(argument))
            if labels:
                self.state.update(argument, frozenset(labels))

    def transfer(self, op: Operation) -> None:
        if op.name in self._CLEARING:
            for result in op.results:
                self.state.set(result, frozenset())
            return
        incoming: frozenset = frozenset()
        for operand in op.operands:
            incoming |= self.state.get(operand)
        if op.name == "kernel.store" and len(op.operands) >= 2:
            # value stored into a buffer taints the buffer itself
            self.state.update(op.operands[1], incoming)
            return
        if op.name == "secure.taint":
            label = op.attr("label")
            if label:
                incoming |= frozenset({str(label)})
        for result in op.results:
            self.state.update(result, incoming)


class Liveness(BackwardAnalysis[bool]):
    """Reference backward client: which values feed an effect.

    An operation is an *effect root* when it writes memory, terminates
    a block or has observable side effects. Every operand of a live
    operation is live; an op is live when it is a root or any of its
    results is live.
    """

    lattice = FlagLattice()

    _ROOT_NAMES = frozenset({
        "kernel.store", "func.return", "kernel.yield", "workflow.yield",
        "workflow.sink", "secure.check", "secure.monitor", "kernel.call",
        "hw.stream_write", "hw.partition",
    })

    def is_root(self, op: Operation) -> bool:
        """True for ops whose execution is observable."""
        if op.name in self._ROOT_NAMES:
            return True
        if op_is_terminator(op):
            return True
        # region-carrying ops (loops, pipelines) sequence their body
        if op.regions:
            return True
        return not op_is_pure(op) and not op.results

    def op_is_live(self, op: Operation) -> bool:
        """True when the op is a root or any result is live."""
        return self.is_root(op) or any(
            self.state.get(result) for result in op.results
        )

    def transfer(self, op: Operation) -> None:
        if not self.op_is_live(op):
            return
        for operand in op.operands:
            self.state.update(operand, True)
