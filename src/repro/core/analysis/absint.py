"""Interval abstract interpretation over kernel-form IR.

One memoized sweep over a function is the analysis layer's only reader
of ``kernel.for`` / ``kernel.load`` / ``kernel.store``; what it learns
is a classic interval (value-range) abstraction that also carries the
affine form of a value for as long as it has one:

* every integer SSA value gets a conservative ``[lo, hi]`` interval;
  loop induction variables range over their static bounds, and the
  transfer functions for ``addi``/``subi``/``muli``/``divi`` evaluate
  interval corners, so non-affine index arithmetic (``i*i``,
  ``i*j + k``) still gets finite bounds;
* comparisons whose operand intervals are disjoint become known
  booleans, and ``kernel.select`` refines through them: a select on a
  provably-constant condition takes the live arm exactly (the dead arm
  is reported as LINT004), and the ``cmplt(x, y) ? x : y`` min/max
  idiom gets the tight ``min``/``max`` interval instead of the union —
  the IR has no branch ops, so select refinement *is* branch
  refinement here;
* each interval tracks which induction variables it depends on and
  whether its bounds are *attained* (``tight``): an expression tree
  that mentions every variable at most once is multilinear, so its
  extrema sit at range corners and really occur on some iteration.
  A tight out-of-bounds interval is therefore a proof (MEM004 error);
  a loose one is only a possibility (MEM004 warning);
* constants and induction variables start an *affine form* (offset +
  per-induction-variable coefficients) that ``addi`` / ``subi`` /
  ``muli``-by-constant propagate and every other operation drops. An
  index that still has its form when it reaches an access gets the
  exact affine extrema as its range (MEM001's domain) instead of the
  interval corners.

Everything the interpreter learns is packaged into a serializable
:class:`AnalysisFacts` object — per-function loop ranges, per-access
per-dimension value ranges, statically-dead constructs, declared
shapes/dtypes and explicit-partition port demands — which downstream
consumers reuse instead of re-deriving:

* :func:`check_module_ranges` turns access facts into MEM004/LINT004
  diagnostics;
* :func:`check_module_contracts` propagates shapes/dtypes
  interprocedurally (``workflow.task`` operands/results and
  ``func.call`` sites against callee signatures) and reports
  producer→consumer mismatches as WF010 (shape) / WF011 (dtype);
* :func:`partition_conflict` lets the DSE pruner reject knob
  assignments whose explicit ``hw.partition`` factors provably cannot
  serve the unrolled access pattern — before any pricing happens;
* :mod:`.partition` emits MEM001/MEM002/MEM003 from the access facts
  alone: affine ranges, the loop each access varies fastest in
  (:func:`accesses_by_loop`, the grouping the port demands above use
  too) and the row-major address form.

Facts are cheap to recompute but cheaper to reuse: see
:mod:`repro.core.analysis.cache` for the digest-keyed incremental
store, and :data:`ANALYSIS_VERSION` which invalidates it whenever the
analysis itself changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.ir.dialects.hw import partition_directives
from repro.core.ir.dialects.kernel import loop_range, trip_count
from repro.core.ir.digest import module_digest
from repro.core.ir.module import Function, Module
from repro.core.ir.ops import Block, Operation, Value
from repro.core.ir.types import MemRefType, ScalarType, compare_contract
from repro.core.store import LRUCache
from repro.core.timing import body_copies, port_demand, ports_granted
from repro.diagnostics import Diagnostics

#: Bump whenever any analysis result can change for the same module —
#: cache entries keyed with an older version are ignored.
ANALYSIS_VERSION = "3"

_INF = float("inf")

#: ``(offset, {induction-variable id: coefficient})``; ``None`` = not affine.
Form = Optional[Tuple[int, Dict[int, int]]]


def _scaled(form: Form, factor: int) -> Form:
    if form is None:
        return None
    return form[0] * factor, {
        var: coefficient * factor for var, coefficient in form[1].items()
    }


def _summed(a: Form, b: Form) -> Form:
    if a is None or b is None:
        return None
    terms = dict(a[1])
    for var, coefficient in b[1].items():
        terms[var] = terms.get(var, 0) + coefficient
    return a[0] + b[0], terms


def _product(a: Form, b: Form) -> Form:
    """Affine only when one factor is a constant (has no terms)."""
    if a is None or b is None or (a[1] and b[1]):
        return None
    constant, varying = (b, a) if a[1] else (a, b)
    return _scaled(varying, constant[0])


# ---------------------------------------------------------------------
# The abstract domain: intervals with dependence and tightness.


@dataclass(frozen=True)
class Interval:
    """A conservative integer range ``[lo, hi]`` (±inf = unbounded)."""

    lo: float = -_INF
    hi: float = _INF
    #: ids of the loop induction variables the value depends on.
    vars: FrozenSet[int] = frozenset()
    #: True when both bounds are attained by concrete executions —
    #: holds for multilinear expressions over independent variables.
    tight: bool = False
    #: the value as an affine function of the induction variables (a
    #: term for every member of ``vars``), while it is one.
    form: Form = None

    @staticmethod
    def top() -> "Interval":
        return Interval()

    @staticmethod
    def const(value: float) -> "Interval":
        return Interval(value, value, frozenset(), True)

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi and self.lo not in (-_INF, _INF)

    def _combine_tight(self, other: "Interval") -> bool:
        # Corner attainment needs independence: sharing a variable
        # correlates the operands (i - i is 0, not [lo-hi, hi-lo]).
        return self.tight and other.tight and not (self.vars & other.vars)

    def add(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi,
                        self.vars | other.vars,
                        self._combine_tight(other),
                        _summed(self.form, other.form))

    def sub(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo,
                        self.vars | other.vars,
                        self._combine_tight(other),
                        _summed(self.form, _scaled(other.form, -1)))

    def mul(self, other: "Interval") -> "Interval":
        corners = [_finite_mul(a, b)
                   for a in (self.lo, self.hi)
                   for b in (other.lo, other.hi)]
        return Interval(min(corners), max(corners),
                        self.vars | other.vars,
                        self._combine_tight(other),
                        _product(self.form, other.form))

    def floordiv(self, other: "Interval") -> "Interval":
        # Only a divisor interval that excludes zero gives bounds.
        if other.lo <= 0 <= other.hi:
            return Interval(vars=self.vars | other.vars)
        if self.lo in (-_INF, _INF) or self.hi in (-_INF, _INF):
            return Interval(vars=self.vars | other.vars)
        corners = [int(a) // int(b)
                   for a in (self.lo, self.hi)
                   for b in (other.lo, other.hi)]
        # Monotone in the dividend; exact corners only for a constant
        # divisor (floor division is not multilinear otherwise).
        tight = self.tight and other.is_const and not (
            self.vars & other.vars
        )
        return Interval(min(corners), max(corners),
                        self.vars | other.vars, tight)

    def union(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi),
                        self.vars | other.vars, False)

    def minimum(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi),
                        self.vars | other.vars,
                        self._combine_tight(other))

    def maximum(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi),
                        self.vars | other.vars,
                        self._combine_tight(other))


def _finite_mul(a: float, b: float) -> float:
    if a == 0 or b == 0:
        return 0  # 0 * inf is 0 here: the finite factor wins
    return a * b


# ---------------------------------------------------------------------
# Facts: what one interpretation of a function learned.


@dataclass
class LoopFacts:
    """Static range and ``unroll`` directive of one ``kernel.for``."""

    anchor: str
    lower: int
    upper: int
    step: int
    depth: int
    innermost: bool
    unroll: int = 1

    @property
    def trip(self) -> int:
        return trip_count(self.lower, self.upper, self.step)

    @property
    def last(self) -> int:
        """Largest induction value actually taken."""
        if self.trip == 0:
            return self.lower
        return self.lower + (self.trip - 1) * self.step


@dataclass
class DimRange:
    """Inferred index range against one buffer dimension."""

    lo: float
    hi: float
    tight: bool
    size: int
    #: the index kept its affine form: ``lo``/``hi`` are the exact
    #: extrema and the dimension is MEM001's, not MEM004's.
    affine: bool

    @property
    def in_bounds(self) -> bool:
        return self.lo >= 0 and self.hi < self.size

    @property
    def always_oob(self) -> bool:
        return self.lo >= self.size or self.hi < 0


@dataclass
class AccessFacts:
    """One load/store with inferred per-dimension value ranges.

    Beyond the range information the out-of-bounds check consumes,
    each access carries its *loop-dependence context* for the static
    performance analyzer: the trip counts of every enclosing loop
    (outermost first), a parallel mask of which of those loops the
    access indices actually depend on, and the element width.  A
    ``False`` in the suffix of ``depends_on`` is a proof that the
    access is invariant in that (inner) loop — a hoisting / reuse
    opportunity the traffic model credits.
    """

    anchor: str
    kind: str  # "load" | "store"
    buffer: str
    dims: List[DimRange] = field(default_factory=list)
    #: trip counts of the enclosing kernel.for loops, outermost first.
    enclosing_trips: List[int] = field(default_factory=list)
    #: aligned with enclosing_trips: does any index depend on the
    #: induction variable of that loop?
    depends_on: List[bool] = field(default_factory=list)
    #: bit width of one buffer element (f32 -> 32).
    element_bits: int = 32
    #: position in ``FunctionFacts.loops`` of the deepest loop any
    #: index depends on (``None``: loop-invariant).
    loop: Optional[int] = None
    #: row-major address as ``(offset, coefficient on that loop's
    #: induction variable)`` when every index is affine.
    flat: Optional[Tuple[int, int]] = None

    @property
    def reuse_factor(self) -> int:
        """Product of trips of the maximal invariant loop *suffix*.

        A load invariant in the innermost ``k`` consecutive loops can
        be issued once per surrounding iteration instead of once per
        innermost iteration: its traffic shrinks by this factor.
        """
        factor = 1
        for trip, depends in zip(reversed(self.enclosing_trips),
                                 reversed(self.depends_on)):
            if depends:
                break
            factor *= max(1, trip)
        return factor


@dataclass
class DeadFacts:
    """A statically-dead construct (LINT004)."""

    anchor: str
    message: str


@dataclass
class PartitionDemand:
    """Port pressure one explicit ``hw.partition`` directive must serve.

    ``accesses`` loads/stores hit ``buffer`` inside an innermost loop
    of ``trip`` iterations; unrolling by ``u`` demands
    ``accesses`` ports for each of ``min(u, trip)`` body copies
    against the ports ``factor`` dual-port banks provide (see
    :func:`repro.core.timing.port_demand` / ``ports_granted``).
    """

    buffer: str
    scheme: str
    factor: int
    accesses: int
    trip: int


@dataclass
class FunctionFacts:
    """Everything the abstract interpreter learned about one function."""

    name: str
    loops: List[LoopFacts] = field(default_factory=list)
    accesses: List[AccessFacts] = field(default_factory=list)
    dead: List[DeadFacts] = field(default_factory=list)
    demands: List[PartitionDemand] = field(default_factory=list)
    #: declared signature, as printed types (shape/dtype inference
    #: output — the IR is typed, so declarations are the ground truth
    #: the interprocedural checks compare against).
    inputs: List[str] = field(default_factory=list)
    results: List[str] = field(default_factory=list)


@dataclass
class AnalysisFacts:
    """Per-function facts for a whole module (the reusable object)."""

    version: str = ANALYSIS_VERSION
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)

    def function(self, name: str) -> Optional[FunctionFacts]:
        return self.functions.get(name)


def accesses_by_loop(
    facts: FunctionFacts, buffer: str
) -> Dict[int, List[AccessFacts]]:
    """``loop position -> accesses`` of one buffer, in program order.

    An access belongs to the deepest loop any of its indices depends
    on — the loop whose unrolling multiplies its port demand. The one
    grouping behind :class:`PartitionDemand` (innermost loops) and
    MEM002 (loops with an ``unroll`` directive).
    """
    groups: Dict[int, List[AccessFacts]] = {}
    for access in facts.accesses:
        if access.buffer == buffer and access.loop is not None:
            groups.setdefault(access.loop, []).append(access)
    return groups


# ---------------------------------------------------------------------
# The interpreter.

_BINARY_INT = {
    "kernel.addi": Interval.add,
    "kernel.subi": Interval.sub,
    "kernel.muli": Interval.mul,
    "kernel.divi": Interval.floordiv,
}

_COMPARE = {
    "kernel.cmplt": lambda a, b: (a.hi < b.lo, a.lo >= b.hi),
    "kernel.cmple": lambda a, b: (a.hi <= b.lo, a.lo > b.hi),
    "kernel.cmpgt": lambda a, b: (a.lo > b.hi, a.hi <= b.lo),
    "kernel.cmpeq": lambda a, b: (
        a.is_const and b.is_const and a.lo == b.lo,
        a.hi < b.lo or b.hi < a.lo,
    ),
}

_MIN_COMPARES = ("kernel.cmplt", "kernel.cmple")
_MAX_COMPARES = ("kernel.cmpgt",)


class _FunctionInterpreter:
    """One abstract-interpretation sweep over a kernel-form function."""

    def __init__(self, function: Function):
        self.function = function
        self.env: Dict[int, Interval] = {}
        #: induction-variable id -> position in ``facts.loops``.
        self.loop_of_var: Dict[int, int] = {}
        #: enclosing (loop, induction-variable-id) pairs, outer first.
        self._loop_stack: List[Tuple[LoopFacts, int]] = []
        self.facts = FunctionFacts(
            name=function.name,
            inputs=[str(t) for t in function.type.inputs],
            results=[str(t) for t in function.type.results],
        )

    # -- helpers -------------------------------------------------------

    def value_of(self, value: Value) -> Interval:
        cached = self.env.get(id(value))
        if cached is not None:
            return cached
        return Interval.top()

    def anchor(self, op: Operation) -> str:
        return f"{self.function.name}/{op.name}"

    # -- driver --------------------------------------------------------

    def run(self) -> FunctionFacts:
        if not self.function.is_declaration:
            for block in self.function.body.blocks:
                self._eval_block(block, depth=0)
            self._collect_demands()
        return self.facts

    def _eval_block(self, block: Block, depth: int) -> None:
        for op in block.operations:
            self._eval_op(op, depth)

    def _eval_op(self, op: Operation, depth: int) -> None:
        name = op.name
        if name == "kernel.for":
            self._eval_loop(op, depth)
            return
        if name == "kernel.const":
            self._eval_const(op)
        elif name in _BINARY_INT:
            lhs = self.value_of(op.operands[0])
            rhs = self.value_of(op.operands[1])
            self.env[id(op.results[0])] = _BINARY_INT[name](lhs, rhs)
        elif name in _COMPARE:
            self._eval_compare(op)
        elif name == "kernel.select":
            self._eval_select(op)
        elif name in ("kernel.load", "kernel.store"):
            self._eval_access(op)
        # every other op (float arithmetic, tensor ops, yields) leaves
        # its results at top — soundly unknown.
        for region in op.regions:
            for block in region.blocks:
                self._eval_block(block, depth)

    def _eval_loop(self, op: Operation, depth: int) -> None:
        lower, upper, step, trip = loop_range(op)
        body = op.regions[0].blocks[0] if (
            op.regions and op.regions[0].blocks
        ) else None
        innermost = not any(
            inner.name == "kernel.for"
            for inner in op.walk() if inner is not op
        )
        loop = LoopFacts(
            anchor=self.anchor(op), lower=lower, upper=upper,
            step=step, depth=depth, innermost=innermost,
            unroll=int(op.attr("unroll", 1) or 1),
        )
        self.facts.loops.append(loop)
        if trip == 0:
            # the body never executes: report it, don't analyze it —
            # accesses inside can't be out of bounds at runtime.
            self.facts.dead.append(DeadFacts(
                anchor=loop.anchor,
                message=(
                    f"loop [{lower}, {upper}) step {step} runs zero "
                    f"iterations; its body is dead"
                ),
            ))
            return
        if body is not None:
            iv_id = -1
            if body.arguments:
                iv = body.arguments[0]
                iv_id = id(iv)
                self.loop_of_var[iv_id] = len(self.facts.loops) - 1
                self.env[iv_id] = Interval(
                    lower, loop.last, frozenset({iv_id}), True,
                    (0, {iv_id: 1}),
                )
            self._loop_stack.append((loop, iv_id))
            try:
                self._eval_block(body, depth + 1)
            finally:
                self._loop_stack.pop()

    def _eval_const(self, op: Operation) -> None:
        raw = op.attr("value")
        if not isinstance(raw, (int, float)):
            return
        result = op.results[0]
        element = result.type
        if isinstance(element, ScalarType) and element.is_float:
            return  # float ranges are not index material
        value = int(raw)
        self.env[id(result)] = Interval(
            value, value, frozenset(), True, (value, {}),
        )

    def _eval_compare(self, op: Operation) -> None:
        lhs = self.value_of(op.operands[0])
        rhs = self.value_of(op.operands[1])
        # Over-approximated intervals make disjointness proofs sound:
        # every concrete value lies inside its interval.
        surely_true, surely_false = _COMPARE[op.name](lhs, rhs)
        if surely_true:
            interval = Interval.const(1.0)
        elif surely_false:
            interval = Interval.const(0.0)
        else:
            interval = Interval(0.0, 1.0, lhs.vars | rhs.vars, False)
        self.env[id(op.results[0])] = interval

    def _eval_select(self, op: Operation) -> None:
        cond_value, true_value, false_value = op.operands[:3]
        cond = self.value_of(cond_value)
        result = op.results[0]
        taken = self.value_of(true_value)
        other = self.value_of(false_value)
        if cond.is_const:
            # branch refinement, degenerate case: the condition is a
            # known constant, so only one arm is ever selected.
            dead_arm = "false" if cond.lo else "true"
            # the live arm's range, not its affine form: a select is
            # never MEM001's, whatever its condition
            self.env[id(result)] = replace(
                taken if cond.lo else other, form=None)
            self.facts.dead.append(DeadFacts(
                anchor=self.anchor(op),
                message=(
                    f"select condition is always "
                    f"{'true' if cond.lo else 'false'}; the {dead_arm} "
                    f"arm is never selected"
                ),
            ))
            return
        producer = cond_value.producer
        if producer is not None and producer.name in _COMPARE:
            x, y = producer.operands[0], producer.operands[1]
            refined = self._refine_minmax(
                producer.name, x, y, true_value, false_value
            )
            if refined is not None:
                self.env[id(result)] = refined
                return
        self.env[id(result)] = taken.union(other)

    def _refine_minmax(
        self, compare: str, x: Value, y: Value,
        true_value: Value, false_value: Value,
    ) -> Optional[Interval]:
        """``cmplt(x,y) ? x : y`` is min; swapped arms (or cmpgt) max."""
        a, b = self.value_of(x), self.value_of(y)
        if compare in _MIN_COMPARES:
            if true_value is x and false_value is y:
                return a.minimum(b)
            if true_value is y and false_value is x:
                return a.maximum(b)
        elif compare in _MAX_COMPARES:
            if true_value is x and false_value is y:
                return a.maximum(b)
            if true_value is y and false_value is x:
                return a.minimum(b)
        return None

    def _eval_access(self, op: Operation) -> None:
        if op.name == "kernel.load":
            kind, buffer, indices = "load", op.operands[0], op.operands[1:]
        else:
            kind, buffer, indices = "store", op.operands[1], op.operands[2:]
        memref = buffer.type
        if not isinstance(memref, MemRefType):
            return
        dims: List[DimRange] = []
        used: FrozenSet[int] = frozenset()
        flat: Form = (0, {})  # row-major address, Horner style
        for size, index in zip(memref.shape, indices):
            interval = self.value_of(index)
            used |= interval.vars
            lo, hi = interval.lo, interval.hi
            if interval.form is not None:
                lo, hi = self._extrema(interval.form)
            dims.append(DimRange(
                lo=lo, hi=hi, tight=interval.tight,
                size=int(size), affine=interval.form is not None,
            ))
            flat = _summed(_scaled(flat, int(size)), interval.form)
        # enclosing loops are recorded outermost first, so the deepest
        # one the indices depend on has the largest position.
        var = max(used, key=self.loop_of_var.get, default=None)
        self.facts.accesses.append(AccessFacts(
            anchor=self.anchor(op), kind=kind,
            buffer=buffer.name, dims=dims,
            enclosing_trips=[loop.trip for loop, _ in self._loop_stack],
            depends_on=[iv_id in used for _, iv_id in self._loop_stack],
            element_bits=int(memref.element.bit_width),
            loop=self.loop_of_var.get(var),
            flat=None if flat is None else (flat[0], flat[1].get(var, 0)),
        ))

    def _extrema(self, form: Form) -> Tuple[int, int]:
        """Exact (min, max) of an affine form over its loop ranges."""
        lo = hi = form[0]
        for var, coefficient in form[1].items():
            loop = self.facts.loops[self.loop_of_var[var]]
            ends = (coefficient * loop.lower, coefficient * loop.last)
            lo += min(ends)
            hi += max(ends)
        return lo, hi

    # -- explicit-partition port demands -------------------------------

    def _collect_demands(self) -> None:
        for buffer, scheme, factor in partition_directives(
            self.function
        ).values():
            if scheme == "complete":
                continue
            for position, grouped in accesses_by_loop(
                self.facts, buffer.name
            ).items():
                loop = self.facts.loops[position]
                if loop.innermost:
                    self.facts.demands.append(PartitionDemand(
                        buffer=buffer.name, scheme=scheme, factor=factor,
                        accesses=len(grouped), trip=loop.trip,
                    ))


# ---------------------------------------------------------------------
# Entry points.


def compute_function_facts(function: Function) -> FunctionFacts:
    """Abstractly interpret one function."""
    return _FunctionInterpreter(function).run()


def compute_facts(module: Module) -> AnalysisFacts:
    """Abstractly interpret every function of a module."""
    facts = AnalysisFacts()
    for function in module.functions():
        facts.functions[function.name] = compute_function_facts(function)
    return facts


def check_module_ranges(
    module: Module,
    diagnostics: Optional[Diagnostics] = None,
    facts: Optional[AnalysisFacts] = None,
) -> Diagnostics:
    """MEM004 (range-proven out-of-bounds) + LINT004 (dead constructs).

    Accesses whose indices are syntactically affine are left to the
    exact MEM001 check; everything here is the non-affine remainder.
    A *tight* violating interval is an error (the bound is attained on
    a real iteration); a loose one only warns, so over-approximation
    can never produce a false-positive error.
    """
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    facts = facts if facts is not None else compute_facts(module)
    for name in sorted(facts.functions):
        function_facts = facts.functions[name]
        for access in function_facts.accesses:
            for position, dim in enumerate(access.dims):
                if dim.affine or dim.in_bounds:
                    continue
                span = (f"[{_render_bound(dim.lo)}, "
                        f"{_render_bound(dim.hi)}]")
                if dim.always_oob or dim.tight:
                    diagnostics.error(
                        "MEM004",
                        f"{access.kind} on %{access.buffer}: inferred "
                        f"range {span} of index {position} "
                        f"{'never enters' if dim.always_oob else 'escapes'} "
                        f"dimension of size {dim.size}",
                        anchor=access.anchor, analysis="absint",
                    )
                elif dim.lo != -_INF or dim.hi != _INF:
                    # a half-bounded range is informative enough to
                    # warn about; a fully-unknown index is a dynamic-
                    # check concern, exactly like the affine pass.
                    diagnostics.warning(
                        "MEM004",
                        f"{access.kind} on %{access.buffer}: inferred "
                        f"range {span} of index {position} may escape "
                        f"dimension of size {dim.size}",
                        anchor=access.anchor, analysis="absint",
                    )
        for dead in function_facts.dead:
            diagnostics.error(
                "LINT004", dead.message,
                anchor=dead.anchor, analysis="absint",
            )
    return diagnostics


def _render_bound(value: float) -> str:
    if value == -_INF:
        return "-inf"
    if value == _INF:
        return "+inf"
    return str(int(value))


# ---------------------------------------------------------------------
# Interprocedural shape/dtype contracts (WF010/WF011).


def check_module_contracts(
    module: Module,
    diagnostics: Optional[Diagnostics] = None,
) -> Diagnostics:
    """Propagate shapes/dtypes across workflow tasks and calls.

    Every ``workflow.task`` and ``func.call`` is checked against the
    signature of the kernel it invokes: a producer→consumer shape
    mismatch is WF010, a dtype mismatch WF011. Unknown callees are
    skipped (symbol resolution is not this check's concern).
    """
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    for op in module.walk():
        if op.name == "workflow.task":
            callee = op.attr("kernel")
            task = op.attr("sym_name") or "task"
        elif op.name == "func.call":
            callee = op.attr("callee")
            task = "func.call"
        else:
            continue
        if not isinstance(callee, str):
            continue
        function = module.find_function(callee)
        if function is None:
            continue
        anchor = f"{callee}/{task}"
        expected_inputs = function.type.inputs
        if len(op.operands) != len(expected_inputs):
            diagnostics.error(
                "WF010",
                f"{task} passes {len(op.operands)} operands but kernel "
                f"{callee!r} takes {len(expected_inputs)}",
                anchor=anchor, analysis="absint",
            )
        else:
            for position, (operand, expected) in enumerate(
                zip(op.operands, expected_inputs)
            ):
                compare_contract(
                    diagnostics, anchor,
                    f"{task}: operand {position} (%{operand.name})",
                    operand.type, expected,
                )
        expected_results = function.type.results
        if len(op.results) != len(expected_results):
            diagnostics.error(
                "WF010",
                f"{task} binds {len(op.results)} results but kernel "
                f"{callee!r} returns {len(expected_results)}",
                anchor=anchor, analysis="absint",
            )
        else:
            for position, (result, expected) in enumerate(
                zip(op.results, expected_results)
            ):
                compare_contract(
                    diagnostics, anchor,
                    f"{task}: result {position}",
                    result.type, expected,
                )
    return diagnostics


# ---------------------------------------------------------------------
# DSE space pruning: static partition legality.


def partition_conflict(
    facts: Optional[FunctionFacts], knobs
) -> Optional[str]:
    """Why a knob assignment is statically illegal, or ``None``.

    The single source of truth shared by the cost model (which rejects
    before synthesis) and the explorer's pruner (which rejects before
    calling the cost model at all) — both must produce the *same*
    infeasibility reason so pruned and unpruned explorations serialize
    byte-identically.
    """
    if facts is None or knobs.target != "fpga" or not facts.demands:
        return None
    for demand in facts.demands:
        effective = body_copies(int(knobs.unroll), demand.trip)
        if effective <= 1:
            continue
        demanded = port_demand(demand.accesses, effective)
        # complete partitions never become demands: elements unused
        ports = ports_granted(demand.scheme, demand.factor, 0)
        if demanded > ports:
            return (
                f"partition: %{demand.buffer} needs {demanded} ports "
                f"({demand.accesses} accesses x unroll {effective}) "
                f"but {demand.scheme} factor {demand.factor} "
                f"provides {ports}"
            )
    return None


# Facts for the DSE hot path, memoized by content digest so pricing a
# thousand knob points re-analyzes the kernel exactly once.
_FACTS_MEMO = LRUCache(256)


def function_facts(
    module: Module, kernel: str, digest: Optional[str] = None
) -> Optional[FunctionFacts]:
    """Digest-memoized facts for one kernel of a module."""
    if digest is None:
        digest = module_digest(module)
    key = (digest, kernel)
    cached = _FACTS_MEMO.get(key)
    if cached is not None:
        return cached
    function = module.find_function(kernel)
    if function is None:
        return None
    facts = compute_function_facts(function)
    _FACTS_MEMO.put(key, facts)
    return facts
