"""Interval abstract interpretation tests (MEM004/LINT004/WF010/11)."""

from repro.core.analysis.absint import (
    Interval,
    check_module_contracts,
    check_module_ranges,
    compute_function_facts,
    function_facts,
    partition_conflict,
)
from repro.core.ir.module import Module
from repro.core.ir.types import F32, F64, I1, MemRefType, TensorType
from repro.core.variants import VariantKnobs

from tests.analysis.conftest import new_function

INF = float("inf")


def _items(diagnostics, code):
    return [item for item in diagnostics.sorted() if item.code == code]


# ---------------------------------------------------------------------
# The abstract domain.


class TestInterval:
    def test_const_is_tight_point(self):
        i = Interval.const(3)
        assert (i.lo, i.hi, i.tight, i.is_const) == (3, 3, True, True)

    def test_top_is_unbounded_and_loose(self):
        top = Interval.top()
        assert top.lo == -INF and top.hi == INF
        assert not top.tight

    def test_add_sums_bounds(self):
        a = Interval(0, 3, frozenset({1}), True)
        b = Interval(10, 20, frozenset({2}), True)
        out = a.add(b)
        assert (out.lo, out.hi) == (10, 23)
        assert out.vars == frozenset({1, 2})
        assert out.tight

    def test_sub_crosses_bounds(self):
        a = Interval(0, 3, frozenset({1}), True)
        b = Interval(1, 2, frozenset({2}), True)
        out = a.sub(b)
        assert (out.lo, out.hi) == (-2, 2)

    def test_mul_takes_extreme_corner(self):
        a = Interval(-2, 3, frozenset({1}), True)
        b = Interval(-5, 4, frozenset({2}), True)
        out = a.mul(b)
        # corners: 10, -8, -15, 12
        assert (out.lo, out.hi) == (-15, 12)
        assert out.tight

    def test_mul_with_unbounded_operand(self):
        out = Interval(0, 2, frozenset(), True).mul(Interval.top())
        assert out.lo == -INF and out.hi == INF

    def test_floordiv_constant_divisor_is_tight(self):
        a = Interval(0, 7, frozenset({1}), True)
        out = a.floordiv(Interval.const(2))
        assert (out.lo, out.hi, out.tight) == (0, 3, True)

    def test_floordiv_zero_crossing_divisor_is_top(self):
        a = Interval(0, 7, frozenset({1}), True)
        out = a.floordiv(Interval(-1, 1, frozenset(), True))
        assert out.lo == -INF and out.hi == INF

    def test_union_widens_and_loses_tightness(self):
        a = Interval(0, 3, frozenset({1}), True)
        b = Interval(10, 20, frozenset({2}), True)
        out = a.union(b)
        assert (out.lo, out.hi) == (0, 20)
        assert not out.tight

    def test_minimum_maximum(self):
        a = Interval(0, 10, frozenset({1}), True)
        b = Interval(4, 6, frozenset({2}), True)
        low = a.minimum(b)
        high = a.maximum(b)
        assert (low.lo, low.hi) == (0, 6)
        assert (high.lo, high.hi) == (4, 10)

    def test_shared_variable_breaks_tightness(self):
        # i - i is exactly 0; the corner rule would claim [-hi, hi].
        # Sharing a variable must therefore drop the tight flag.
        i = Interval(0, 7, frozenset({1}), True)
        assert not i.sub(i).tight
        assert not i.mul(i).tight
        assert i.mul(Interval(0, 7, frozenset({2}), True)).tight

    def test_bounds_stay_integers(self):
        out = Interval.const(3).add(Interval.const(4))
        assert isinstance(out.lo, int) and isinstance(out.hi, int)


# ---------------------------------------------------------------------
# Range facts and MEM004 / LINT004.


def _cross_product_store(b, buffer, n=4, m=4):
    """Nested loops storing through the non-affine index i*j."""
    outer = b.for_loop(0, n)
    with b.at_block(outer.body):
        inner = b.for_loop(0, m)
        with b.at_block(inner.body):
            index = b._binary(
                "kernel.muli",
                outer.induction_var, inner.induction_var,
            )
            value = b.load(buffer, [index])
            b.store(value, buffer, [index])
            b.yield_op()
        b.yield_op()


class TestRanges:
    def test_tight_nonaffine_overflow_is_error(self, module):
        # i*j over i,j in [0,4) attains 9; size 8 -> proven OOB.
        memref = MemRefType((8,), F32)
        function, b = new_function(module, "f", [memref], [])
        _cross_product_store(b, function.arguments[0])
        b.ret([])
        diagnostics = check_module_ranges(module)
        errors = _items(diagnostics, "MEM004")
        assert len(errors) == 2  # the load and the store
        assert all(item.severity.value == "error" for item in errors)
        assert "[0, 9]" in errors[0].message

    def test_tight_nonaffine_in_bounds_is_clean(self, module):
        memref = MemRefType((16,), F32)
        function, b = new_function(module, "f", [memref], [])
        _cross_product_store(b, function.arguments[0])
        b.ret([])
        diagnostics = check_module_ranges(module)
        assert not _items(diagnostics, "MEM004")

    def test_loose_square_overflow_is_warning(self, module):
        # i*i shares its variable with itself: the [0, 9] bound over
        # i in [0, 4) is not attained-proven, so only a warning.
        memref = MemRefType((8,), F32)
        function, b = new_function(module, "f", [memref], [])
        loop = b.for_loop(0, 4)
        with b.at_block(loop.body):
            iv = loop.induction_var
            b.load(function.arguments[0], [b._binary(
                "kernel.muli", iv, iv)])
            b.yield_op()
        b.ret([])
        diagnostics = check_module_ranges(module)
        (item,) = _items(diagnostics, "MEM004")
        assert item.severity.value == "warning"
        assert "may escape" in item.message

    def test_always_oob_is_error_even_when_loose(self, module):
        # i*i over i in [4, 8): lo is 16 >= size 8 on every corner, so
        # the whole interval misses the buffer — error despite loose.
        memref = MemRefType((8,), F32)
        function, b = new_function(module, "f", [memref], [])
        loop = b.for_loop(4, 8)
        with b.at_block(loop.body):
            iv = loop.induction_var
            b.load(function.arguments[0], [b._binary(
                "kernel.muli", iv, iv)])
            b.yield_op()
        b.ret([])
        (item,) = _items(check_module_ranges(module), "MEM004")
        assert item.severity.value == "error"
        assert "never enters" in item.message

    def test_affine_index_left_to_mem001(self, module):
        # A plain affine overflow is the affine pass's business: the
        # interval check must not double-report it.
        memref = MemRefType((8,), F32)
        function, b = new_function(module, "f", [memref], [])
        loop = b.for_loop(0, 9)
        with b.at_block(loop.body):
            b.load(function.arguments[0], [loop.induction_var])
            b.yield_op()
        b.ret([])
        assert not _items(check_module_ranges(module), "MEM004")

    def test_unknown_index_is_silent(self, module):
        # An index from outside any loop has a fully-top interval:
        # dynamic-check material, not a diagnostic.
        memref = MemRefType((8,), F32)
        from repro.core.ir.types import INDEX

        function, b = new_function(module, "f", [memref, INDEX], [])
        buffer, index = function.arguments
        b.load(buffer, [index])
        b.ret([])
        assert not _items(check_module_ranges(module), "MEM004")

    def test_minmax_select_refinement_keeps_access_clean(self, module):
        # clamp-style min(i*j, 15) stays within a size-16 buffer; the
        # plain union would be [0, 81] and wrongly warn.
        memref = MemRefType((16,), F32)
        function, b = new_function(module, "f", [memref], [])
        outer = b.for_loop(0, 10)
        with b.at_block(outer.body):
            inner = b.for_loop(0, 10)
            with b.at_block(inner.body):
                raw = b._binary(
                    "kernel.muli",
                    outer.induction_var, inner.induction_var,
                )
                limit = b.index_const(15)
                cond = b.create("kernel.cmplt", [raw, limit], [I1]).result
                clamped = b.select(cond, raw, limit)
                b.load(function.arguments[0], [clamped])
                b.yield_op()
            b.yield_op()
        b.ret([])
        assert not _items(check_module_ranges(module), "MEM004")

    def test_constant_select_reports_dead_arm(self, module):
        memref = MemRefType((8,), F32)
        function, b = new_function(module, "f", [memref], [])
        loop = b.for_loop(0, 8)
        with b.at_block(loop.body):
            cond = b.create("kernel.cmplt", [
                b.index_const(2), b.index_const(5)], [I1]).result
            picked = b.select(
                cond, loop.induction_var, b.index_const(0))
            b.load(function.arguments[0], [picked])
            b.yield_op()
        b.ret([])
        (item,) = _items(check_module_ranges(module), "LINT004")
        assert item.severity.value == "error"
        assert "always true" in item.message
        assert "false arm" in item.message

    def test_zero_trip_loop_is_dead_and_body_not_checked(self, module):
        # The body would be OOB if it ran — but it never runs, so the
        # only finding is the dead loop itself.
        memref = MemRefType((8,), F32)
        function, b = new_function(module, "f", [memref], [])
        loop = b.for_loop(8, 4)
        with b.at_block(loop.body):
            iv = loop.induction_var
            b.load(function.arguments[0], [b._binary(
                "kernel.muli", iv, iv)])
            b.yield_op()
        b.ret([])
        diagnostics = check_module_ranges(module)
        (dead,) = _items(diagnostics, "LINT004")
        assert "zero iterations" in dead.message
        assert not _items(diagnostics, "MEM004")


# ---------------------------------------------------------------------
# Facts: loops, demands, serialization, memoization.


class TestFacts:
    def test_loop_facts_record_bounds_and_nesting(self, module):
        memref = MemRefType((8, 8), F32)
        function, b = new_function(module, "f", [memref], [])
        outer = b.for_loop(0, 8)
        with b.at_block(outer.body):
            inner = b.for_loop(0, 6)
            inner.op.set_attr("step", 2)
            with b.at_block(inner.body):
                b.yield_op()
            b.yield_op()
        b.ret([])
        facts = compute_function_facts(function)
        assert [loop.depth for loop in facts.loops] == [0, 1]
        assert not facts.loops[0].innermost
        inner_facts = facts.loops[1]
        assert inner_facts.innermost
        assert (inner_facts.trip, inner_facts.last) == (3, 4)

    def test_signature_recorded_as_printed_types(self, module):
        function, _ = new_function(
            module, "f",
            [TensorType((4, 4), F32)], [TensorType((4, 4), F32)],
        )
        facts = compute_function_facts(function)
        assert facts.inputs == ["tensor<4x4xf32>"]
        assert facts.results == ["tensor<4x4xf32>"]

    def test_partition_demand_counts_innermost_accesses(self, module):
        memref = MemRefType((8,), F32)
        function, b = new_function(module, "f", [memref], [])
        buffer = function.arguments[0]
        b.create(
            "hw.partition", operands=[buffer],
            attributes={"scheme": "cyclic", "factor": 2},
        )
        loop = b.for_loop(0, 8)
        with b.at_block(loop.body):
            iv = loop.induction_var
            value = b.load(buffer, [iv])
            b.store(value, buffer, [iv])
            b.yield_op()
        b.ret([])
        facts = compute_function_facts(function)
        (demand,) = facts.demands
        assert (demand.buffer, demand.scheme) == (buffer.name, "cyclic")
        assert (demand.factor, demand.accesses, demand.trip) == (2, 2, 8)

    def test_complete_partition_has_no_demand(self, module):
        memref = MemRefType((8,), F32)
        function, b = new_function(module, "f", [memref], [])
        buffer = function.arguments[0]
        b.create(
            "hw.partition", operands=[buffer],
            attributes={"scheme": "complete", "factor": 8},
        )
        loop = b.for_loop(0, 8)
        with b.at_block(loop.body):
            b.load(buffer, [loop.induction_var])
            b.yield_op()
        b.ret([])
        assert not compute_function_facts(function).demands

    def test_function_facts_memoized_by_digest(self, module):
        memref = MemRefType((8,), F32)
        function, b = new_function(module, "f", [memref], [])
        loop = b.for_loop(0, 8)
        with b.at_block(loop.body):
            b.load(function.arguments[0], [loop.induction_var])
            b.yield_op()
        b.ret([])
        first = function_facts(module, "f")
        second = function_facts(module, "f")
        assert first is second
        assert function_facts(module, "missing") is None


# ---------------------------------------------------------------------
# Interprocedural contracts (WF010/WF011) at the IR level.


def _declared_kernel(module, name, inputs, results):
    # Only the declared signature matters to the contract check; the
    # body is never interpreted.
    function, b = new_function(module, name, inputs, results)
    b.ret([])
    return function


class TestContracts:
    def test_call_with_matching_signature_is_clean(self, module):
        tensor = TensorType((4, 4), F32)
        _declared_kernel(module, "k", [tensor], [tensor])
        _, b = new_function(module, "caller", [tensor], [])
        b.call("k", [module.find_function("caller").arguments[0]],
               [tensor])
        b.ret([])
        assert not check_module_contracts(module).items

    def test_call_shape_mismatch_is_wf010(self, module):
        _declared_kernel(
            module, "k",
            [TensorType((4, 4), F32)], [TensorType((4, 4), F32)],
        )
        caller, b = new_function(
            module, "caller", [TensorType((8, 4), F32)], [])
        b.call("k", [caller.arguments[0]], [TensorType((4, 4), F32)])
        b.ret([])
        (item,) = _items(check_module_contracts(module), "WF010")
        assert "8x4" in item.message and "4x4" in item.message

    def test_call_dtype_mismatch_is_wf011(self, module):
        _declared_kernel(
            module, "k",
            [TensorType((4, 4), F32)], [TensorType((4, 4), F32)],
        )
        caller, b = new_function(
            module, "caller", [TensorType((4, 4), F64)], [])
        b.call("k", [caller.arguments[0]], [TensorType((4, 4), F32)])
        b.ret([])
        diagnostics = check_module_contracts(module)
        (item,) = _items(diagnostics, "WF011")
        assert "f64" in item.message and "f32" in item.message
        assert not _items(diagnostics, "WF010")

    def test_result_shape_mismatch_is_wf010(self, module):
        _declared_kernel(
            module, "k",
            [TensorType((4, 4), F32)], [TensorType((4, 4), F32)],
        )
        caller, b = new_function(
            module, "caller", [TensorType((4, 4), F32)], [])
        b.call("k", [caller.arguments[0]], [TensorType((2, 2), F32)])
        b.ret([])
        (item,) = _items(check_module_contracts(module), "WF010")
        assert "result 0" in item.message

    def test_arity_mismatch_is_wf010(self, module):
        tensor = TensorType((4, 4), F32)
        _declared_kernel(module, "k", [tensor, tensor], [tensor])
        caller, b = new_function(module, "caller", [tensor], [])
        b.call("k", [caller.arguments[0]], [tensor])
        b.ret([])
        (item,) = _items(check_module_contracts(module), "WF010")
        assert "passes 1 operands" in item.message

    def test_unknown_callee_is_skipped(self, module):
        tensor = TensorType((4, 4), F32)
        caller, b = new_function(module, "caller", [tensor], [])
        b.call("ghost", [caller.arguments[0]], [tensor])
        b.ret([])
        assert not check_module_contracts(module).items


# ---------------------------------------------------------------------
# DSE pruning predicate.


def _demand_facts(module):
    memref = MemRefType((8,), F32)
    function, b = new_function(module, "f", [memref], [])
    buffer = function.arguments[0]
    b.create(
        "hw.partition", operands=[buffer],
        attributes={"scheme": "cyclic", "factor": 2},
    )
    loop = b.for_loop(0, 8)
    with b.at_block(loop.body):
        iv = loop.induction_var
        value = b.load(buffer, [iv])
        b.store(value, buffer, [iv])
        b.yield_op()
    b.ret([])
    return compute_function_facts(function)


class TestPartitionConflict:
    def test_oversubscribed_unroll_is_rejected_with_reason(self):
        facts = _demand_facts(Module("m"))
        reason = partition_conflict(
            facts, VariantKnobs(target="fpga", unroll=8))
        # 2 accesses x unroll 8 = 16 ports > cyclic factor 2 x 2 = 4.
        assert reason is not None
        assert "16 ports" in reason and "provides 4" in reason

    def test_servable_unroll_is_accepted(self):
        facts = _demand_facts(Module("m"))
        assert partition_conflict(
            facts, VariantKnobs(target="fpga", unroll=2)) is None

    def test_unroll_capped_by_trip_count(self):
        facts = _demand_facts(Module("m"))
        # unroll 64 over an 8-trip loop only replicates 8 bodies.
        reason = partition_conflict(
            facts, VariantKnobs(target="fpga", unroll=64))
        assert "unroll 8" in reason

    def test_cpu_targets_never_conflict(self):
        facts = _demand_facts(Module("m"))
        assert partition_conflict(
            facts, VariantKnobs(target="cpu", threads=8)) is None

    def test_missing_facts_never_conflict(self):
        assert partition_conflict(
            None, VariantKnobs(target="fpga", unroll=64)) is None
