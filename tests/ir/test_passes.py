"""Tests for canonicalization, fusion, tiling, layout and directives."""

import math

import numpy as np
import pytest

from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.ir import (
    F32,
    FunctionType,
    MemRefType,
    Module,
    verify,
)
from repro.core.ir.builder import Builder
from repro.core.ir.interp import Interpreter
from repro.core.ir.passes import (
    CanonicalizePass,
    ConstantFoldPass,
    CSEPass,
    DataLayoutPass,
    DCEPass,
    ElementwiseFusionPass,
    LoopDirectivesPass,
    LowerTensorPass,
    PassManager,
    TilingPass,
)
from repro.errors import PassError


def scalar_function():
    """f() -> f32 computing (2+3)*4 with a duplicated subexpression."""
    module = Module("m")
    function = module.add_function("f", FunctionType((), (F32,)))
    builder = Builder(function.entry_block)
    two = builder.const(2.0)
    three = builder.const(3.0)
    sum1 = builder.addf(two, three)
    sum2 = builder.addf(two, three)  # CSE fodder
    four = builder.const(4.0)
    product = builder.mulf(sum1, four)
    _dead = builder.mulf(sum2, four)  # DCE fodder after CSE
    builder.ret([product])
    return module


class TestCanonicalize:
    def test_constant_folding_collapses(self):
        module = scalar_function()
        ConstantFoldPass().run(module)
        interp_result = Interpreter(module).run("f")
        assert interp_result == [20.0]

    def test_cse_removes_duplicate(self):
        module = scalar_function()
        before = sum(
            1 for op in module.walk() if op.name == "kernel.addf"
        )
        CSEPass().run(module)
        after = sum(
            1 for op in module.walk() if op.name == "kernel.addf"
        )
        assert before == 2 and after == 1

    def test_dce_removes_unused(self):
        module = scalar_function()
        CSEPass().run(module)
        DCEPass().run(module)
        mulfs = sum(
            1 for op in module.walk() if op.name == "kernel.mulf"
        )
        assert mulfs == 1

    def test_canonicalize_fixed_point(self):
        module = scalar_function()
        CanonicalizePass().run(module)
        verify(module)
        # everything folds to a single constant return
        ops = [
            op.name
            for op in module.find_function("f").walk()
        ]
        assert ops == ["kernel.const", "func.return"]
        assert Interpreter(module).run("f") == [20.0]

    def test_idempotent(self):
        module = scalar_function()
        CanonicalizePass().run(module)
        assert CanonicalizePass().run(module) is False

    @pytest.mark.parametrize("numerator, denominator, expected", [
        (-1.0, 0.0, -math.inf), (1.0, 0.0, math.inf),
        (1.0, -0.0, -math.inf), (0.0, 0.0, math.nan),
        (3.0, 2.0, 1.5),
    ])
    def test_division_folds_to_what_the_interpreter_computes(
            self, numerator, denominator, expected):
        # the folder was a second statement of ``divf`` that turned
        # every x / 0 into +inf; the interpreter raised instead
        def module():
            module = Module("m")
            function = module.add_function("f", FunctionType((), (F32,)))
            builder = Builder(function.entry_block)
            builder.ret([builder._binary("kernel.divf", builder.const(numerator),
                                         builder.const(denominator))])
            return module

        interpreted, = Interpreter(module()).run("f")
        folded = module()
        assert ConstantFoldPass().run(folded)
        assert [op.name for op in folded.find_function("f").walk()][-2:] \
            == ["kernel.const", "func.return"]
        constant, = Interpreter(folded).run("f")
        for value in (interpreted, constant):
            assert value == expected or (
                math.isnan(value) and math.isnan(expected))


class TestFusion:
    SRC = """
    kernel chain(X: tensor<32xf32>) -> tensor<32xf32> {
      A = exp(X)
      B = A * X
      C = relu(B)
      return C
    }
    """

    def test_chain_shares_group(self):
        module = compile_kernel(self.SRC)
        ElementwiseFusionPass().run(module)
        groups = {
            op.attr("fusion_group")
            for op in module.find_function("chain").walk()
            if op.dialect == "tensor"
        }
        assert len(groups) == 1

    def test_fused_lowering_single_loop(self):
        module = compile_kernel(self.SRC)
        ElementwiseFusionPass().run(module)
        LowerTensorPass().run(module)
        loops = sum(
            1 for op in module.walk() if op.name == "kernel.for"
        )
        assert loops == 1  # one fused nest writing the out-param

    def test_unfused_lowering_multiple_loops(self):
        module = compile_kernel(self.SRC)
        LowerTensorPass().run(module)
        loops = sum(
            1 for op in module.walk() if op.name == "kernel.for"
        )
        assert loops == 3  # one nest per op, last writes in place

    def test_fusion_preserves_semantics(self, rng):
        x = rng.normal(size=32).astype(np.float32)
        expected = np.maximum(np.exp(x) * x, 0)
        for fuse in (False, True):
            module = compile_kernel(self.SRC)
            manager = PassManager()
            if fuse:
                manager.add(ElementwiseFusionPass())
            manager.add(LowerTensorPass())
            manager.run(module)
            out = np.zeros(32, np.float32)
            Interpreter(module).run("chain", x.copy(), out)
            assert np.allclose(out, expected, atol=1e-4)


class TestTiling:
    def test_pass_attaches_attribute(self, gemm_module):
        TilingPass(tile_sizes=(8, 8, 8)).run(gemm_module)
        op = next(
            op for op in gemm_module.walk()
            if op.name == "tensor.matmul"
        )
        assert op.attr("tile_sizes") == [8, 8, 8]

    def test_tiled_lowering_correct(self, gemm_module, rng):
        TilingPass(tile_sizes=(8, 8, 8)).run(gemm_module)
        LowerTensorPass().run(gemm_module)
        verify(gemm_module)
        a = rng.normal(size=(16, 16)).astype(np.float32)
        b = rng.normal(size=(16, 16)).astype(np.float32)
        out = np.zeros((16, 16), np.float32)
        Interpreter(gemm_module).run("gemm", a, b, out)
        assert np.allclose(out, a @ b, atol=1e-4)

    def test_non_dividing_tiles_fall_back(self, gemm_module, rng):
        TilingPass(tile_sizes=(5, 5, 5)).run(gemm_module)  # 16 % 5 != 0
        LowerTensorPass().run(gemm_module)
        a = rng.normal(size=(16, 16)).astype(np.float32)
        b = rng.normal(size=(16, 16)).astype(np.float32)
        out = np.zeros((16, 16), np.float32)
        Interpreter(gemm_module).run("gemm", a, b, out)
        assert np.allclose(out, a @ b, atol=1e-4)

    def test_rerun_reports_no_change(self, gemm_module):
        assert TilingPass(tile_sizes=(8, 8, 8)).run(gemm_module)
        assert not TilingPass(tile_sizes=(8, 8, 8)).run(gemm_module)
        assert TilingPass(tile_sizes=(4, 4, 4)).run(gemm_module)

    def test_invalid_tile_rejected(self):
        with pytest.raises(ValueError):
            TilingPass(tile_sizes=(0, 4, 4))


class TestDataLayout:
    def test_retags_record_buffers_only(self):
        module = Module("m")
        record = MemRefType((128,), F32, layout="aos")
        plain = MemRefType((128,), F32)
        function = module.add_function(
            "f", FunctionType((record, plain), ())
        )
        Builder(function.entry_block).ret()
        DataLayoutPass("soa").run(module)
        function = module.find_function("f")
        assert function.arguments[0].type.layout == "soa"
        assert function.arguments[1].type.layout == "row_major"
        assert function.type.inputs[0].layout == "soa"
        verify(module)

    def test_unknown_layout_rejected(self):
        with pytest.raises(PassError):
            DataLayoutPass("zigzag")


class TestLoopDirectives:
    def test_innermost_only(self, gemm_module):
        LowerTensorPass().run(gemm_module)
        LoopDirectivesPass(unroll_factor=4).run(gemm_module)
        for_ops = [
            op for op in gemm_module.walk() if op.name == "kernel.for"
        ]
        inner = [op for op in for_ops if op.attr("unroll") is not None]
        outer = [op for op in for_ops if op.attr("unroll") is None]
        assert inner and outer

    def test_unroll_capped_by_trip_count(self):
        src = """
        kernel tiny(X: tensor<2xf32>) -> tensor<2xf32> {
          Y = relu(X)
          return Y
        }
        """
        module = compile_kernel(src)
        LowerTensorPass().run(module)
        LoopDirectivesPass(unroll_factor=64).run(module)
        loop = next(
            op for op in module.walk() if op.name == "kernel.for"
        )
        assert loop.attr("unroll") == 2
