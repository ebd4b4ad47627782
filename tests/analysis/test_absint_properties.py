"""Property-based soundness tests for the interval interpreter.

The contract under test: for every access, every index value a
concrete execution produces lies inside the inferred ``DimRange``,
and a *tight* range's bounds are actually attained by some iteration.
Expressions and loop nests are generated by hypothesis; the concrete
executions are plain Python loops over the same bounds.
"""

import re

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import (  # noqa: E402
    assume, example, given, settings, strategies as st,
)

from repro.core.analysis.absint import (  # noqa: E402
    _FunctionInterpreter,
    compute_function_facts,
    partition_conflict,
)
from repro.core.analysis.partition import (  # noqa: E402
    check_function_partitioning,
)
from repro.core.ir.module import Module  # noqa: E402
from repro.core.ir.types import F32, I1, MemRefType  # noqa: E402
from repro.core.variants import VariantKnobs  # noqa: E402

from tests.analysis.conftest import new_function  # noqa: E402
from tests.conftest import examples  # noqa: E402

#: the numbers both MEM002 and ``partition_conflict`` name.
_PORT_NUMBERS = re.compile(
    r"needs? (?P<demanded>\d+) ports.*provides (?P<ports>\d+)")

_BINOPS = {
    "add": ("kernel.addi", lambda a, b: a + b),
    "sub": ("kernel.subi", lambda a, b: a - b),
    "mul": ("kernel.muli", lambda a, b: a * b),
}


@st.composite
def index_exprs(draw, num_vars):
    """A small arithmetic AST over loop variables and constants."""
    leaf = st.one_of(
        st.tuples(st.just("var"), st.integers(0, num_vars - 1)),
        st.tuples(st.just("const"), st.integers(-3, 5)),
    )
    return draw(st.recursive(
        leaf,
        lambda children: st.tuples(
            st.sampled_from(sorted(_BINOPS)), children, children),
        max_leaves=6,
    ))


@st.composite
def loop_nests(draw, max_loops=2):
    """(lower, upper, step) triples for a small nest."""
    count = draw(st.integers(1, max_loops))
    loops = []
    for _ in range(count):
        lower = draw(st.integers(0, 4))
        extent = draw(st.integers(0, 6))
        step = draw(st.integers(1, 3))
        loops.append((lower, lower + extent, step))
    return loops


def _emit(b, expr, ivs):
    kind = expr[0]
    if kind == "var":
        return ivs[expr[1]]
    if kind == "const":
        return b.index_const(expr[1])
    op, left, right = expr
    return b._binary(
        _BINOPS[op][0], _emit(b, left, ivs), _emit(b, right, ivs))


def _evaluate(expr, values):
    kind = expr[0]
    if kind == "var":
        return values[expr[1]]
    if kind == "const":
        return expr[1]
    op, left, right = expr
    return _BINOPS[op][1](
        _evaluate(left, values), _evaluate(right, values))


def _build_nest(loops, accesses, shape=(8,), partition=None, unroll=1):
    """IR for the nest with one load per index tuple in ``accesses``.

    ``partition`` is an optional ``(scheme, factor)`` directive on the
    buffer and ``unroll`` the directive on the innermost loop. Returns
    the function, the induction variables and the emitted index values.
    """
    module = Module("prop")
    function, b = new_function(module, "f", [MemRefType(shape, F32)], [])
    buffer = function.arguments[0]
    if partition is not None:
        b.create("hw.partition", [buffer], [],
                 {"scheme": partition[0], "factor": partition[1]})
    ivs = []
    handles = []
    for position, (lower, upper, step) in enumerate(loops):
        innermost = position == len(loops) - 1
        loop = b.for_loop(lower, upper)
        loop.op.set_attr("step", step)
        if innermost:
            loop.op.set_attr("unroll", unroll)
        handles.append(loop)
        ivs.append(loop.induction_var)
        b.set_insertion_point(loop.body)
    indices = []
    for exprs in accesses:
        indices.append([_emit(b, expr, ivs) for expr in exprs])
        b.load(buffer, indices[-1])
    for loop in reversed(handles):
        b.set_insertion_point(loop.body)
        b.yield_op()
    b.set_insertion_point(function.entry_block)
    return function, ivs, indices


def _build_access(loops, expr):
    """IR for the nest + load, returning its analysis facts."""
    function, _ivs, _indices = _build_nest(loops, [[expr]])
    return compute_function_facts(function)


def _iterations(loops):
    """Every induction-variable assignment the nest executes."""
    assignments = [[]]
    for lower, upper, step in loops:
        assignments = [
            assigned + [value] for assigned in assignments
            for value in range(lower, upper, step)
        ]
    return assignments


def _concrete_values(loops, expr):
    return [_evaluate(expr, values) for values in _iterations(loops)]


@settings(deadline=None, max_examples=examples(60))
@given(data=st.data())
def test_every_concrete_index_lies_in_the_inferred_range(data):
    loops = data.draw(loop_nests())
    expr = data.draw(index_exprs(num_vars=len(loops)))
    facts = _build_access(loops, expr)
    concrete = _concrete_values(loops, expr)
    if any(upper <= lower for lower, upper, _ in loops):
        # a zero-trip nest is reported dead and its body skipped
        assert facts.dead and not concrete
        return
    (access,) = facts.accesses
    dim = access.dims[0]
    assert concrete
    for value in concrete:
        assert dim.lo <= value <= dim.hi
    if dim.tight:
        # tight means the corner bounds really occur
        assert min(concrete) == dim.lo
        assert max(concrete) == dim.hi


@settings(deadline=None, max_examples=examples(60))
@given(data=st.data())
def test_carried_affine_form_is_the_concrete_index(data):
    loops = data.draw(loop_nests())
    expr = data.draw(index_exprs(num_vars=len(loops)))
    assume(all(upper > lower for lower, upper, _ in loops))
    function, ivs, ((index,),) = _build_nest(loops, [[expr]])
    interpreter = _FunctionInterpreter(function)
    (access,) = interpreter.run().accesses
    form = interpreter.env[id(index)].form
    dim = access.dims[0]
    assert dim.affine == (form is not None)
    if form is None:
        return
    offset, terms = form
    concrete = []
    for values in _iterations(loops):
        concrete.append(_evaluate(expr, values))
        assert concrete[-1] == offset + sum(
            terms.get(id(iv), 0) * value
            for iv, value in zip(ivs, values)
        )
    # an affine range is exact even where interval corners are not
    # (i - i is [0, 0], not [lo - hi, hi - lo])
    assert (dim.lo, dim.hi) == (min(concrete), max(concrete))


@st.composite
def partitioned_nests(draw):
    """(loops, accesses, partition, unroll): 1-3 loads of a 64x64
    explicitly partitioned buffer in an innermost loop that carries
    an ``unroll`` directive no larger than its trip count."""
    loops = draw(loop_nests())
    exprs = index_exprs(num_vars=len(loops))
    accesses = draw(
        st.lists(st.tuples(exprs, exprs), min_size=1, max_size=3))
    partition = (draw(st.sampled_from(["cyclic", "block"])),
                 draw(st.sampled_from([1, 2, 4])))
    lower, upper, step = loops[-1]
    # below trip >= unroll the trip clamp still differs (ROADMAP 4)
    unroll = draw(st.sampled_from([1, 2, 4]).filter(
        lambda u: u <= max(1, len(range(lower, upper, step)))))
    return loops, accesses, partition, unroll


@settings(deadline=None, max_examples=examples(60))
@given(case=partitioned_nests())
@example(case=(  # a[i, j*j], the j loop unrolled 8x on 2 banks
    [(0, 4, 1), (0, 8, 1)],
    [(("var", 0), ("mul", ("var", 1), ("var", 1)))],
    ("block", 2), 8,
))
def test_mem002_port_verdict_matches_partition_conflict(case):
    loops, accesses, partition, unroll = case
    function, _ivs, _indices = _build_nest(
        loops, accesses, shape=(64, 64), partition=partition,
        unroll=unroll,
    )
    facts = compute_function_facts(function)
    conflict = partition_conflict(
        facts, VariantKnobs(target="fpga", unroll=unroll))
    lints = [
        _PORT_NUMBERS.search(item.message).groupdict()
        for item in check_function_partitioning(function, facts=facts)
        if item.code == "MEM002" and "ports" in item.message
    ]
    if conflict is None:
        assert not lints
    else:
        assert _PORT_NUMBERS.search(conflict).groupdict() in lints


@settings(deadline=None, max_examples=examples(60))
@given(
    a=st.integers(-4, 4),
    b_const=st.integers(-4, 4),
    fallback=st.integers(0, 7),
    upper=st.integers(1, 6),
)
def test_dead_select_verdicts_never_flip_concretely(
    a, b_const, fallback, upper
):
    # select(cmplt(a, b), i, fallback) with constant a, b: the
    # interpreter must call the branch exactly as Python evaluates it,
    # and the access range must still cover the surviving arm.
    module = Module("prop")
    memref = MemRefType((64,), F32)
    function, builder = new_function(module, "f", [memref], [])
    buffer = function.arguments[0]
    loop = builder.for_loop(0, upper)
    with builder.at_block(loop.body):
        cond = builder.create("kernel.cmplt", [
            builder.index_const(a), builder.index_const(b_const)], [I1]).result
        picked = builder.select(
            cond, loop.induction_var, builder.index_const(fallback))
        builder.load(buffer, [picked])
        builder.yield_op()
    builder.ret([])
    facts = compute_function_facts(function)

    (dead,) = facts.dead
    concretely_true = a < b_const
    expected = "always true" if concretely_true else "always false"
    assert expected in dead.message

    (access,) = facts.accesses
    dim = access.dims[0]
    for i in range(upper):
        value = i if concretely_true else fallback
        assert dim.lo <= value <= dim.hi


@settings(deadline=None, max_examples=examples(40))
@given(
    lower=st.integers(0, 6),
    upper=st.integers(0, 6),
    step=st.integers(1, 3),
)
def test_zero_trip_verdict_matches_concrete_iteration_count(
    lower, upper, step
):
    module = Module("prop")
    memref = MemRefType((64,), F32)
    function, builder = new_function(module, "f", [memref], [])
    loop = builder.for_loop(lower, upper)
    loop.op.set_attr("step", step)
    with builder.at_block(loop.body):
        builder.load(function.arguments[0], [loop.induction_var])
        builder.yield_op()
    builder.ret([])
    facts = compute_function_facts(function)
    concrete_trips = len(range(lower, upper, step))
    flagged_dead = any(
        "zero iterations" in dead.message for dead in facts.dead)
    assert flagged_dead == (concrete_trips == 0)
    (loop_facts,) = facts.loops
    assert loop_facts.trip == concrete_trips
