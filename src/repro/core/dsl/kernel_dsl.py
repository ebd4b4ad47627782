"""Kernel DSL driver: parse, type check and emit tensor-dialect IR.

The public entry point, :func:`compile_kernel`, takes source to a
type-checked IR :class:`Module` with one tensor-form function per
kernel (in declaration order), sensitive parameters recorded in the
``everest.sensitive_args`` attribute for the security pass.

Example::

    module = compile_kernel('''
        kernel dense(A: tensor<64x32xf32>, W: tensor<32x16xf32>,
                     B: tensor<64x16xf32> @sensitive) -> tensor<64x16xf32> {
            H = relu(A @ W + B)
            return H
        }
    ''')
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.dsl import ast_nodes as ast
from repro.core.dsl.parser import parse
from repro.core.dsl.typecheck import check_program
from repro.core.ir.builder import Builder
from repro.core.ir.dialects.elementwise import (
    BUILTINS,
    OPERATORS,
    REDUCE_BUILTINS,
)
from repro.core.ir.module import Module
from repro.core.ir.ops import Value
from repro.core.ir.types import (
    FunctionType,
    ScalarType,
    TensorType,
)
from repro.core.ir.verifier import verify
from repro.errors import SpecificationError


def compile_kernel(source: str) -> Module:
    """Parse and type check DSL source, and compile it into a verified
    tensor-form IR module."""
    program = parse(source)
    check_program(program)
    module = Module("kernels")
    for kernel in program.kernels:
        _KernelCodegen(module, kernel).emit()
    verify(module)
    return module


class _KernelCodegen:
    """Emits one kernel as a tensor-dialect function."""

    def __init__(self, module: Module, kernel: ast.KernelDecl):
        self.module = module
        self.kernel = kernel
        self.builder = Builder()
        self.values: Dict[str, Value] = {}

    def emit(self) -> None:
        kernel = self.kernel
        input_types = tuple(param.declared_type for param in kernel.params)
        function_type = FunctionType(
            input_types, tuple(kernel.result_types)
        )
        sensitive = [
            index for index, param in enumerate(kernel.params)
            if param.sensitive
        ]
        attributes = {}
        if sensitive:
            attributes["everest.sensitive_args"] = sensitive
        function = self.module.add_function(
            kernel.name, function_type, attributes=attributes
        )
        self.builder.set_insertion_point(function.entry_block)
        for param, argument in zip(kernel.params, function.arguments):
            self.values[param.name] = argument

        for statement in kernel.body:
            if isinstance(statement, ast.Assignment):
                self.values[statement.name] = self._emit_expr(
                    statement.value
                )
            elif isinstance(statement, ast.Return):
                results = [self._emit_expr(v) for v in statement.values]
                self.builder.ret(results)

    # ------------------------------------------------------------------

    def _emit_expr(self, expr: Optional[ast.Expr]) -> Value:
        if expr is None:
            raise SpecificationError("internal: missing expression")
        if isinstance(expr, ast.NumberLiteral):
            return self.builder.const(expr.value, ScalarType("f32"))
        if isinstance(expr, ast.VarRef):
            return self.values[expr.name]
        if isinstance(expr, ast.UnaryOp):
            operand = self._emit_expr(expr.operand)
            row = OPERATORS[expr.op, 1]
            if isinstance(expr.type, TensorType):
                return self.builder.tensor_op(
                    row.name, [operand], expr.type)
            return self.builder.unary(row.float_op, operand)
        if isinstance(expr, ast.BinaryOp):
            return self._emit_binary(expr)
        if isinstance(expr, ast.Call):
            return self._emit_call(expr)
        raise SpecificationError(f"unknown expression node {expr!r}")

    def _broadcast(self, value: Value, target: TensorType) -> Value:
        """Splat a scalar value to a tensor type."""
        return self.builder.tensor_op("splat", [value], target)

    def _emit_binary(self, expr: ast.BinaryOp) -> Value:
        lhs = self._emit_expr(expr.lhs)
        rhs = self._emit_expr(expr.rhs)
        if expr.op == "@":
            return self.builder.matmul(lhs, rhs)
        result_type = expr.type
        row = OPERATORS[expr.op, 2]
        if isinstance(result_type, TensorType):
            if isinstance(lhs.type, ScalarType):
                lhs = self._broadcast(lhs, result_type)
            if isinstance(rhs.type, ScalarType):
                rhs = self._broadcast(rhs, result_type)
            return self.builder.tensor_op(
                row.name, [lhs, rhs], result_type
            )
        return self.builder._binary(f"kernel.{row.float_op}", lhs, rhs)

    def _emit_call(self, expr: ast.Call) -> Value:
        callee = expr.callee
        if callee == "fill":
            literal = expr.args[0]
            assert isinstance(literal, ast.NumberLiteral)
            return self.builder.tensor_op(
                "constant", [], expr.type,
                attributes={"value": literal.value})
        operands = [self._emit_expr(arg) for arg in expr.args]
        if callee in BUILTINS:
            name, attributes = BUILTINS[callee].name, None
        elif callee in REDUCE_BUILTINS:
            name, attributes = "reduce", {
                "axes": list(expr.int_lists["axes"]),
                "kind": REDUCE_BUILTINS[callee].name,
            }
        elif callee == "transpose":
            name, attributes = callee, {
                "permutation": list(expr.int_lists["perm"])}
        elif callee == "reshape":
            name, attributes = callee, None
        else:
            raise SpecificationError(f"unknown builtin {callee!r}")
        return self.builder.tensor_op(
            name, operands, expr.type, attributes=attributes)
