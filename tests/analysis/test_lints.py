"""Dead-value / unreachable-block / unused-function lint tests."""

from repro.core.analysis.lints import (
    check_dead_values,
    check_module_lints,
    check_unreachable_blocks,
    check_unused_functions,
)
from repro.core.ir.types import F32
from repro.diagnostics import Severity

from tests.analysis.conftest import new_function


def _codes(diagnostics):
    return [item.code for item in diagnostics.sorted()]


class TestDeadValues:
    def test_unused_pure_op_flagged(self, module):
        function, b = new_function(module, "f", [F32], [F32])
        (x,) = function.arguments
        b.mulf(x, x)  # dead
        b.ret([x])
        diagnostics = check_dead_values(function)
        assert _codes(diagnostics) == ["LINT001"]
        assert "never used" in diagnostics.by_severity(Severity.WARNING)[0].message

    def test_used_chain_not_flagged(self, module):
        function, b = new_function(module, "f", [F32], [F32])
        (x,) = function.arguments
        y = b.mulf(x, x)
        b.ret([y])
        assert not check_dead_values(function)

    def test_effectful_op_without_results_not_flagged(self, module):
        function, b = new_function(module, "f", [F32], [])
        (x,) = function.arguments
        b.create("secure.check", [x], [], {"policy": "p"})
        b.ret([])
        assert not check_dead_values(function)


class TestUnreachableBlocks:
    def test_extra_block_flagged(self, module):
        function, b = new_function(module, "f", [], [])
        loop = b.for_loop(0, 4)
        with b.at_block(loop.body):
            b.yield_op()
        loop.op.regions[0].add_block([])  # never targeted
        b.ret([])
        diagnostics = check_unreachable_blocks(function)
        assert _codes(diagnostics) == ["LINT002"]

    def test_single_block_regions_clean(self, module):
        function, b = new_function(module, "f", [], [])
        loop = b.for_loop(0, 4)
        with b.at_block(loop.body):
            b.yield_op()
        b.ret([])
        assert not check_unreachable_blocks(function)


class TestUnusedFunctions:
    def test_unreferenced_kernel_flagged(self, module):
        used, b = new_function(module, "used", [F32], [F32])
        b.ret([used.arguments[0]])
        unused, b2 = new_function(module, "unused", [F32], [F32])
        b2.ret([unused.arguments[0]])
        # a reference makes the module "linked", exposing the orphan
        top, b3 = new_function(module, "top", [], [])
        b3.create("kernel.call", [], [], {"callee": "used"})
        b3.ret([])
        diagnostics = check_unused_functions(module)
        flagged = {item.anchor for item in diagnostics}
        assert "unused" in flagged
        assert "used" not in flagged
        # 'top' itself is unreferenced too: also flagged
        assert "top" in flagged

    def test_pure_kernel_library_not_flagged(self, module):
        function, b = new_function(module, "lib", [F32], [F32])
        b.ret([function.arguments[0]])
        assert not check_unused_functions(module)


class TestModuleLints:
    def test_aggregator_combines_all(self, module):
        function, b = new_function(module, "f", [F32], [F32])
        (x,) = function.arguments
        b.mulf(x, x)  # dead
        b.ret([x])
        diagnostics = check_module_lints(module)
        assert "LINT001" in _codes(diagnostics)
        assert not diagnostics.has_errors  # lints are warnings
