"""Tests for DSL type checking and IR code generation."""

import numpy as np
import pytest

from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.dsl.parser import parse
from repro.core.dsl.typecheck import check_program
from repro.core.ir.interp import run_function
from repro.errors import TypeCheckError


def check(src: str):
    return check_program(parse(src))


class TestTypeChecking:
    def test_undefined_name(self):
        with pytest.raises(TypeCheckError, match="undefined"):
            check("""
            kernel f(A: tensor<4xf32>) -> tensor<4xf32> {
              return B
            }
            """)

    def test_single_assignment_enforced(self):
        with pytest.raises(TypeCheckError, match="redefinition"):
            check("""
            kernel f(A: tensor<4xf32>) -> tensor<4xf32> {
              B = A
              B = A + A
              return B
            }
            """)

    def test_shape_mismatch_elementwise(self):
        with pytest.raises(TypeCheckError, match="equal shapes"):
            check("""
            kernel f(A: tensor<4xf32>, B: tensor<8xf32>)
                    -> tensor<4xf32> {
              C = A + B
              return C
            }
            """)

    def test_matmul_inner_dim_mismatch(self):
        with pytest.raises(TypeCheckError, match="inner dimensions"):
            check("""
            kernel f(A: tensor<4x4xf32>, B: tensor<8x4xf32>)
                    -> tensor<4x4xf32> {
              C = A @ B
              return C
            }
            """)

    def test_matmul_requires_rank2(self):
        with pytest.raises(TypeCheckError, match="rank-2"):
            check("""
            kernel f(A: tensor<4xf32>) -> tensor<4xf32> {
              B = A @ A
              return B
            }
            """)

    def test_return_type_mismatch(self):
        with pytest.raises(TypeCheckError, match="does not match"):
            check("""
            kernel f(A: tensor<4xf32>) -> tensor<8xf32> {
              return A
            }
            """)

    def test_return_arity_mismatch(self):
        with pytest.raises(TypeCheckError, match="declares 1"):
            check("""
            kernel f(A: tensor<4xf32>) -> tensor<4xf32> {
              return A, A
            }
            """)

    def test_duplicate_kernel_names(self):
        with pytest.raises(TypeCheckError, match="duplicate kernel"):
            check("""
            kernel f(A: tensor<4xf32>) -> tensor<4xf32> { return A }
            kernel f(A: tensor<4xf32>) -> tensor<4xf32> { return A }
            """)

    def test_duplicate_params(self):
        with pytest.raises(TypeCheckError, match="duplicate parameter"):
            check("""
            kernel f(A: tensor<4xf32>, A: f32) -> tensor<4xf32> {
              return A
            }
            """)

    def test_reduce_axis_out_of_range(self):
        with pytest.raises(TypeCheckError, match="out of range"):
            check("""
            kernel f(A: tensor<4xf32>) -> tensor<1xf32> {
              B = sum(A, axes=[3])
              return B
            }
            """)

    def test_reshape_element_count(self):
        with pytest.raises(TypeCheckError, match="mismatch"):
            check("""
            kernel f(A: tensor<4x4xf32>) -> tensor<15xf32> {
              B = reshape(A, shape=[15])
              return B
            }
            """)

    def test_transpose_bad_perm(self):
        with pytest.raises(TypeCheckError, match="permutation"):
            check("""
            kernel f(A: tensor<4x4xf32>) -> tensor<4x4xf32> {
              B = transpose(A, perm=[0, 0])
              return B
            }
            """)

    def test_unknown_builtin(self):
        with pytest.raises(TypeCheckError, match="unknown builtin"):
            check("""
            kernel f(A: tensor<4xf32>) -> tensor<4xf32> {
              B = fourier(A)
              return B
            }
            """)

    def test_statement_after_return(self):
        with pytest.raises(TypeCheckError, match="after return"):
            check("""
            kernel f(A: tensor<4xf32>) -> tensor<4xf32> {
              return A
              B = A
            }
            """)


class TestCodegenExecution:
    def test_scalar_arithmetic(self):
        module = compile_kernel("""
        kernel f(a: f32, b: f32) -> f32 {
          c = a * b + a / b
          return c
        }
        """)
        result = run_function(module, "f", 6.0, 3.0)[0]
        assert result == pytest.approx(20.0)

    def test_scalar_tensor_mixed(self, rng):
        module = compile_kernel("""
        kernel f(A: tensor<8xf32>, s: f32) -> tensor<8xf32> {
          B = maximum(A * s, A)
          return B
        }
        """)
        a = rng.normal(size=8).astype(np.float32)
        out = run_function(module, "f", a, 2.0)[0]
        assert np.allclose(out, np.maximum(a * 2, a))

    def test_unary_negation_tensor(self, rng):
        module = compile_kernel("""
        kernel f(A: tensor<8xf32>) -> tensor<8xf32> {
          B = -A
          return B
        }
        """)
        a = rng.normal(size=8).astype(np.float32)
        assert np.allclose(run_function(module, "f", a)[0], -a)

    def test_multi_result_kernel(self, rng):
        module = compile_kernel("""
        kernel f(A: tensor<8xf32>) -> tensor<8xf32>, tensor<1xf32> {
          B = relu(A)
          s = sum(B)
          return B, s
        }
        """)
        a = rng.normal(size=8).astype(np.float32)
        relu_out, total = run_function(module, "f", a)
        assert np.allclose(relu_out, np.maximum(a, 0))
        assert np.allclose(total, np.maximum(a, 0).sum(), atol=1e-5)

    def test_kernels_compile_in_declaration_order(self):
        module = compile_kernel("""
        kernel b(X: tensor<2xf32>) -> tensor<2xf32> { return X }
        kernel a(X: tensor<2xf32>) -> tensor<2xf32> { return X }
        """)
        assert [kernel.name for kernel in module.functions()] == ["b", "a"]

    def test_sensitive_annotation_recorded(self, sensitive_module):
        function = sensitive_module.find_function("score")
        assert function.op.attr("everest.sensitive_args") == [0]
