"""Lowering correctness: kernel-form execution matches tensor semantics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.ir import F32, FunctionType, Module, verify
from repro.core.ir.builder import Builder
from repro.core.ir.interp import Interpreter, run_function
from repro.core.ir.passes import (
    CanonicalizePass,
    ElementwiseFusionPass,
    LowerTensorPass,
    PassManager,
    SecurityInstrumentationPass,
)
from repro.errors import IRError
from tests.conftest import examples


def lower(module):
    manager = PassManager()
    manager.add(ElementwiseFusionPass())
    manager.add(LowerTensorPass())
    manager.add(CanonicalizePass())
    manager.run(module)
    return module


def roundtrip(src, kernel, *arrays_in, out_shape):
    """Run tensor form and kernel form; return both results."""
    tensor_module = compile_kernel(src)
    tensor_result = run_function(tensor_module, kernel, *arrays_in)[0]
    kernel_module = lower(compile_kernel(src))
    out = np.zeros(out_shape, np.float32)
    Interpreter(kernel_module).run(kernel, *arrays_in, out)
    return tensor_result, out


f32s = st.floats(
    min_value=-10, max_value=10, allow_nan=False, width=32
)


class TestLoweringMatchesTensorSemantics:
    def test_matmul(self, rng):
        src = """
        kernel mm(A: tensor<8x12xf32>, B: tensor<12x6xf32>)
                -> tensor<8x6xf32> {
          C = A @ B
          return C
        }
        """
        a = rng.normal(size=(8, 12)).astype(np.float32)
        b = rng.normal(size=(12, 6)).astype(np.float32)
        expected, got = roundtrip(src, "mm", a, b, out_shape=(8, 6))
        assert np.allclose(got, expected, atol=1e-4)

    def test_transpose(self, rng):
        src = """
        kernel tr(A: tensor<3x5xf32>) -> tensor<5x3xf32> {
          B = transpose(A)
          return B
        }
        """
        a = rng.normal(size=(3, 5)).astype(np.float32)
        expected, got = roundtrip(src, "tr", a, out_shape=(5, 3))
        assert np.allclose(got, expected)

    def test_reduce_sum_axis(self, rng):
        src = """
        kernel rs(A: tensor<4x6xf32>) -> tensor<6xf32> {
          B = sum(A, axes=[0])
          return B
        }
        """
        a = rng.normal(size=(4, 6)).astype(np.float32)
        expected, got = roundtrip(src, "rs", a, out_shape=(6,))
        assert np.allclose(got, expected, atol=1e-5)

    def test_reduce_mean_all(self, rng):
        src = """
        kernel rm(A: tensor<4x6xf32>) -> tensor<1xf32> {
          B = mean(A)
          return B
        }
        """
        a = rng.normal(size=(4, 6)).astype(np.float32)
        expected, got = roundtrip(src, "rm", a, out_shape=(1,))
        assert np.allclose(got, expected, atol=1e-5)

    def test_reduce_max(self, rng):
        src = """
        kernel rx(A: tensor<16xf32>) -> tensor<1xf32> {
          B = rmax(A)
          return B
        }
        """
        a = rng.normal(size=16).astype(np.float32)
        expected, got = roundtrip(src, "rx", a, out_shape=(1,))
        assert np.allclose(got, expected)

    def test_reshape(self, rng):
        src = """
        kernel rs(A: tensor<4x6xf32>) -> tensor<24xf32> {
          B = reshape(A, shape=[24]) * 2.0
          return B
        }
        """
        a = rng.normal(size=(4, 6)).astype(np.float32)
        expected, got = roundtrip(src, "rs", a, out_shape=(24,))
        assert np.allclose(got, expected)

    def test_scalar_broadcast(self, rng):
        src = """
        kernel sb(A: tensor<8xf32>, s: f32) -> tensor<8xf32> {
          B = A * s + 1.0
          return B
        }
        """
        a = rng.normal(size=8).astype(np.float32)
        tensor_module = compile_kernel(src)
        expected = run_function(tensor_module, "sb", a, 2.5)[0]
        kernel_module = lower(compile_kernel(src))
        out = np.zeros(8, np.float32)
        Interpreter(kernel_module).run("sb", a, 2.5, out)
        assert np.allclose(out, expected)
        assert np.allclose(out, a * 2.5 + 1.0)

    def test_fill_constant(self):
        src = """
        kernel fc(A: tensor<4xf32>) -> tensor<4xf32> {
          B = A + fill(3.0, shape=[4])
          return B
        }
        """
        a = np.ones(4, np.float32)
        expected, got = roundtrip(src, "fc", a, out_shape=(4,))
        assert np.allclose(got, 4.0)

    def test_mlp_full(self, mlp_module, rng):
        x = rng.normal(size=(16, 8)).astype(np.float32)
        w0 = rng.normal(size=(8, 4)).astype(np.float32)
        b0 = rng.normal(size=(16, 4)).astype(np.float32)
        w1 = rng.normal(size=(4, 2)).astype(np.float32)
        b1 = rng.normal(size=(16, 2)).astype(np.float32)
        expected = run_function(
            mlp_module, "mlp", x, w0, b0, w1, b1
        )[0]
        lowered = lower(mlp_module.clone())
        verify(lowered)
        out = np.zeros((16, 2), np.float32)
        Interpreter(lowered).run("mlp", x, w0, b0, w1, b1, out)
        assert np.allclose(out, expected, atol=1e-4)

    @settings(max_examples=examples(20), deadline=None)
    @given(arrays(np.float32, (8,), elements=f32s))
    def test_property_elementwise_chain(self, x):
        src = """
        kernel ch(X: tensor<8xf32>) -> tensor<8xf32> {
          Y = relu(X * 2.0 - 1.0)
          return Y
        }
        """
        module = lower(compile_kernel(src))
        out = np.zeros(8, np.float32)
        Interpreter(module).run("ch", x, out)
        assert np.allclose(out, np.maximum(x * 2 - 1, 0), atol=1e-5)


class TestInterpreterSecurity:
    def test_taint_reaches_check(self, sensitive_module):
        module = sensitive_module
        SecurityInstrumentationPass().run(module)
        interp = Interpreter(module)
        x = np.ones((8, 8), np.float32)
        w = np.ones((8, 8), np.float32)
        interp.run("score", x, w)
        assert interp.flagged
        policy, labels = interp.flagged[0]
        assert policy == "no-tainted-egress"
        assert "arg0" in labels

    def test_check_observes_without_changing_values(self, sensitive_module):
        x = np.linspace(-1, 1, 64, dtype=np.float32).reshape(8, 8)
        w = np.eye(8, dtype=np.float32)
        plain = Interpreter(sensitive_module.clone()).run("score", x, w)
        SecurityInstrumentationPass().run(sensitive_module)
        interp = Interpreter(sensitive_module)
        checked = interp.run("score", x, w)
        assert interp.flagged
        assert all(np.array_equal(a, b) for a, b in zip(plain, checked))

    def test_untainted_function_not_flagged(self, gemm_module):
        interp = Interpreter(gemm_module)
        interp.run(
            "gemm",
            np.ones((16, 16), np.float32),
            np.ones((16, 16), np.float32),
        )
        assert not interp.flagged


class TestInterpreterErrors:
    def test_unknown_function(self, gemm_module):
        with pytest.raises(IRError):
            run_function(gemm_module, "ghost")

    def test_arity_mismatch(self, gemm_module):
        with pytest.raises(IRError, match="expected 2 arguments"):
            run_function(gemm_module, "gemm", np.ones((16, 16)))

    def test_shape_mismatch(self, gemm_module):
        with pytest.raises(IRError, match="shape"):
            run_function(
                gemm_module, "gemm",
                np.ones((4, 4)), np.ones((16, 16)),
            )

    @pytest.mark.parametrize("zero", [0.0, np.float32(0.0)])
    def test_float_division_by_zero_is_ieee_not_an_error(self, zero):
        # Python floats (constants, loaded elements) used to raise
        # ZeroDivisionError where numpy scalars gave inf
        module = Module("m")
        function = module.add_function("f", FunctionType((F32,), (F32,)))
        builder = Builder(function.entry_block)
        builder.ret([builder._binary("kernel.divf", builder.const(-1.0),
                                     function.arguments[0])])
        with np.errstate(divide="ignore"):
            assert run_function(module, "f", zero) == [-math.inf]
