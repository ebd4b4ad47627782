"""Memory-partition legality and static bounds tests."""

import os
import re

from repro.core.analysis import analyze_module
from repro.core.analysis.absint import (
    compute_function_facts,
    partition_conflict,
)
from repro.core.analysis.partition import (
    check_function_partitioning,
    check_module_partitioning,
)
from repro.core.ir.parser import parse_module
from repro.core.ir.types import F32, MemRefType
from repro.core.variants import VariantKnobs
from repro.diagnostics import Severity

from tests.analysis.conftest import new_function


def _codes(diagnostics):
    return [item.code for item in diagnostics.sorted()]


def _loop_over(b, buffer, upper, unroll=1, offset=0, stride=1):
    """for i in [0, upper): load buffer[stride*i + offset]."""
    loop = b.for_loop(0, upper)
    if unroll > 1:
        loop.op.set_attr("unroll", unroll)
    with b.at_block(loop.body):
        index = loop.induction_var
        if stride != 1:
            index = b._binary(
                "kernel.muli", index, b.index_const(stride)
            )
        if offset:
            index = b._binary(
                "kernel.addi", index, b.index_const(offset)
            )
        b.load(buffer, [index])
        b.yield_op()
    return loop


class TestBounds:
    def test_in_bounds_loop_is_clean(self, module):
        memref = MemRefType((8,), F32)
        function, b = new_function(module, "f", [memref], [])
        (buffer,) = function.arguments
        _loop_over(b, buffer, upper=8)
        b.ret([])
        assert not check_function_partitioning(function)

    def test_off_by_one_flagged_mem001(self, module):
        memref = MemRefType((8,), F32)
        function, b = new_function(module, "f", [memref], [])
        (buffer,) = function.arguments
        _loop_over(b, buffer, upper=8, offset=1)
        b.ret([])
        diagnostics = check_function_partitioning(function)
        assert _codes(diagnostics) == ["MEM001"]
        assert "outside dimension" in diagnostics.errors[0].message

    def test_negative_offset_flagged(self, module):
        memref = MemRefType((8,), F32)
        function, b = new_function(module, "f", [memref], [])
        (buffer,) = function.arguments
        loop = b.for_loop(0, 8)
        with b.at_block(loop.body):
            index = b._binary(
                "kernel.subi", loop.induction_var, b.index_const(1)
            )
            b.load(buffer, [index])
            b.yield_op()
        b.ret([])
        diagnostics = check_function_partitioning(function)
        assert _codes(diagnostics) == ["MEM001"]

    def test_2d_row_major_in_bounds(self, module):
        memref = MemRefType((4, 8), F32)
        function, b = new_function(module, "f", [memref], [])
        (buffer,) = function.arguments
        outer = b.for_loop(0, 4)
        with b.at_block(outer.body):
            inner = b.for_loop(0, 8)
            with b.at_block(inner.body):
                b.load(
                    buffer,
                    [outer.induction_var, inner.induction_var],
                )
                b.yield_op()
            b.yield_op()
        b.ret([])
        assert not check_function_partitioning(function)

    def test_non_affine_index_skipped(self, module):
        memref = MemRefType((8,), F32)
        function, b = new_function(module, "f", [memref, F32], [])
        buffer, scalar = function.arguments
        loop = b.for_loop(0, 8)
        with b.at_block(loop.body):
            # i*i is not affine: the analysis must stay silent
            index = b._binary(
                "kernel.muli", loop.induction_var, loop.induction_var
            )
            b.load(buffer, [index])
            b.yield_op()
        b.ret([])
        assert not check_function_partitioning(function)

    def test_zero_trip_loop_body_is_not_bounds_checked(self, module):
        # partner of absint's test_zero_trip_loop_is_dead_and_body_
        # not_checked: the affine body would be OOB if it ran, but the
        # dead loop itself is the only finding of either analysis.
        memref = MemRefType((8,), F32)
        function, b = new_function(module, "f", [memref], [])
        (buffer,) = function.arguments
        loop = b.for_loop(8, 4)
        with b.at_block(loop.body):
            b.load(buffer, [b._binary(
                "kernel.addi", loop.induction_var, b.index_const(9))])
            b.yield_op()
        b.ret([])
        assert not check_function_partitioning(function)
        diagnostics = analyze_module(
            module, checks=["partition", "absint"])
        assert _codes(diagnostics) == ["LINT004"]


class TestPartitionLegality:
    def _partitioned(self, b, buffer, scheme, factor):
        b.create(
            "hw.partition", [buffer], [],
            {"scheme": scheme, "factor": factor},
        )

    def test_conflict_free_cyclic_is_clean(self, module):
        memref = MemRefType((16,), F32)
        function, b = new_function(module, "f", [memref], [])
        (buffer,) = function.arguments
        self._partitioned(b, buffer, "cyclic", 4)
        _loop_over(b, buffer, upper=16, unroll=4)
        b.ret([])
        assert not check_function_partitioning(function)

    def test_stride_collides_with_cyclic_banks_mem002(self, module):
        memref = MemRefType((16,), F32)
        function, b = new_function(module, "f", [memref], [])
        (buffer,) = function.arguments
        self._partitioned(b, buffer, "cyclic", 2)
        # addresses 0, 2, 4, ... with 2 banks: every access lands in
        # bank 0, so unroll 2 needs 2 simultaneous ports of one bank
        # plus the same again next cycle — legal; use stride 2 with
        # unroll 2: addresses i*2 and (i+1)*2 are both even -> bank 0
        _loop_over(b, buffer, upper=8, unroll=2, stride=2)
        b.ret([])
        diagnostics = check_function_partitioning(function)
        assert "MEM002" in _codes(diagnostics)
        assert "colliding banks" in diagnostics.by_severity(Severity.WARNING)[0].message

    def test_port_demand_exceeds_banks_mem002(self, module):
        memref = MemRefType((64,), F32)
        function, b = new_function(module, "f", [memref], [])
        (buffer,) = function.arguments
        self._partitioned(b, buffer, "block", 2)
        # one access under unroll 16 needs 16 ports; 2 banks give 4
        _loop_over(b, buffer, upper=64, unroll=16)
        b.ret([])
        diagnostics = check_function_partitioning(function)
        assert "MEM002" in _codes(diagnostics)
        assert "ports" in diagnostics.by_severity(Severity.WARNING)[0].message

    def test_non_affine_access_is_charged_without_facts(self, module):
        memref = MemRefType((64,), F32)
        function, b = new_function(module, "f", [memref], [])
        (buffer,) = function.arguments
        self._partitioned(b, buffer, "block", 2)
        loop = b.for_loop(0, 8)
        loop.op.set_attr("unroll", 8)
        with b.at_block(loop.body):
            iv = loop.induction_var
            b.load(buffer, [b._binary("kernel.muli", iv, iv)])
            b.yield_op()
        b.ret([])
        # no facts passed: the check computes them, so the dependence
        # of i*i on the unrolled loop is seen all the same
        diagnostics = check_function_partitioning(function)
        assert _codes(diagnostics) == ["MEM002"]
        assert "1 accesses x unroll 8 need 8 ports" in (
            diagnostics.by_severity(Severity.WARNING)[0].message)

    def test_mixed_affine_access_agrees_with_partition_conflict(self):
        # a[i, j*j] with the j loop unrolled: the access belongs to
        # the j loop although its first index is affine in i alone
        path = os.path.join(
            os.path.dirname(__file__), "fixtures",
            "mixed_affine_access.ir")
        with open(path, "r", encoding="utf-8") as handle:
            function = parse_module(handle.read()).find_function("mixed")
        facts = compute_function_facts(function)
        (loop,) = [loop for loop in facts.loops if loop.unroll > 1]
        conflict = partition_conflict(
            facts, VariantKnobs(target="fpga", unroll=loop.unroll))
        (lint,) = check_function_partitioning(function).by_severity(Severity.WARNING)
        assert lint.code == "MEM002"
        numbers = r"(\d+) accesses x unroll (\d+)"
        assert re.search(numbers, lint.message).groups() == (
            re.search(numbers, conflict).groups()) == ("1", "8")
        assert "need 8 ports" in lint.message
        assert "needs 8 ports" in conflict
        assert "provides 4" in lint.message and "provides 4" in conflict

    def test_wasteful_factor_mem003(self, module):
        memref = MemRefType((4,), F32)
        function, b = new_function(module, "f", [memref], [])
        (buffer,) = function.arguments
        self._partitioned(b, buffer, "cyclic", 16)
        _loop_over(b, buffer, upper=4)
        b.ret([])
        diagnostics = check_function_partitioning(function)
        assert "MEM003" in _codes(diagnostics)

    def test_complete_partition_never_conflicts(self, module):
        memref = MemRefType((16,), F32)
        function, b = new_function(module, "f", [memref], [])
        (buffer,) = function.arguments
        self._partitioned(b, buffer, "complete", 16)
        _loop_over(b, buffer, upper=8, unroll=8, stride=2)
        b.ret([])
        assert not check_function_partitioning(function)

    def test_module_entry_point(self, module):
        memref = MemRefType((8,), F32)
        function, b = new_function(module, "f", [memref], [])
        (buffer,) = function.arguments
        _loop_over(b, buffer, upper=8, offset=1)
        b.ret([])
        diagnostics = check_module_partitioning(module)
        assert _codes(diagnostics) == ["MEM001"]
