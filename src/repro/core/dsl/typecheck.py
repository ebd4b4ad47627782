"""Type checking for the kernel DSL.

Annotates every expression node with its :class:`~repro.core.ir.types`
type, enforcing the shape rules of the tensor language:

* elementwise ``+ - * /`` require identical tensor shapes, with scalars
  (literals or scalar-typed expressions) broadcast by splatting;
* ``@`` is rank-2 matrix multiplication with matching inner dims;
* builtins (``relu``, ``exp``, ``transpose``, ``sum`` …) have fixed
  arities and keyword integer-list parameters;
* ``return`` values must match the declared kernel result types.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.dsl import ast_nodes as ast
from repro.core.ir.dialects.elementwise import BUILTINS, REDUCE_BUILTINS
from repro.core.ir.types import ScalarType, TensorType, Type
from repro.errors import TypeCheckError


def _fail(node: ast.Node, message: str,
          code: str = "TY001") -> TypeCheckError:
    """TypeCheckError carrying its diagnostic code and source line."""
    error = TypeCheckError(f"line {node.line}: {message}")
    error.code = code
    error.line = node.line
    return error


class TypeChecker:
    """Checks one kernel; exposes the symbol table afterwards."""

    def __init__(self, kernel: ast.KernelDecl):
        self.kernel = kernel
        self.symbols: Dict[str, Type] = {}

    def check(self) -> None:
        """Run the checker; raises :class:`TypeCheckError` on error."""
        for param in self.kernel.params:
            if param.name in self.symbols:
                raise _fail(
                    param, f"duplicate parameter {param.name!r}",
                    code="TY002",
                )
            if param.declared_type is None:
                raise _fail(
                    param, f"parameter {param.name!r} lacks a type",
                    code="TY002",
                )
            self.symbols[param.name] = param.declared_type

        returned = False
        for statement in self.kernel.body:
            if returned:
                raise _fail(statement, "statement after return")
            if isinstance(statement, ast.Assignment):
                if statement.name in self.symbols:
                    raise _fail(
                        statement,
                        f"redefinition of {statement.name!r} "
                        f"(the DSL is single-assignment)",
                        code="TY002",
                    )
                value_type = self._check_expr(statement.value)
                self.symbols[statement.name] = value_type
            elif isinstance(statement, ast.Return):
                self._check_return(statement)
                returned = True
            else:
                raise _fail(statement, "unknown statement kind")

    def _check_return(self, statement: ast.Return) -> None:
        declared = self.kernel.result_types
        if len(statement.values) != len(declared):
            raise _fail(
                statement,
                f"kernel declares {len(declared)} results but returns "
                f"{len(statement.values)}",
            )
        for value, expected in zip(statement.values, declared):
            actual = self._check_expr(value)
            if actual != expected:
                raise _fail(
                    statement,
                    f"return type {actual} does not match declared "
                    f"{expected}",
                )

    # ------------------------------------------------------------------

    def _check_expr(self, expr: Optional[ast.Expr]) -> Type:
        if expr is None:
            raise TypeCheckError("internal: missing expression")
        if expr.type is not None:
            return expr.type
        if isinstance(expr, ast.NumberLiteral):
            expr.type = ScalarType("f32")
        elif isinstance(expr, ast.VarRef):
            if expr.name not in self.symbols:
                raise _fail(expr, f"undefined name {expr.name!r}")
            expr.type = self.symbols[expr.name]
        elif isinstance(expr, ast.UnaryOp):
            expr.type = self._check_expr(expr.operand)
        elif isinstance(expr, ast.BinaryOp):
            expr.type = self._check_binary(expr)
        elif isinstance(expr, ast.Call):
            expr.type = self._check_call(expr)
        else:
            raise _fail(expr, "unknown expression kind")
        return expr.type

    def _check_binary(self, expr: ast.BinaryOp) -> Type:
        lhs = self._check_expr(expr.lhs)
        rhs = self._check_expr(expr.rhs)
        if expr.op == "@":
            if not (isinstance(lhs, TensorType)
                    and isinstance(rhs, TensorType)):
                raise _fail(expr, "'@' requires tensor operands")
            if lhs.rank != 2 or rhs.rank != 2:
                raise _fail(expr, "'@' requires rank-2 tensors")
            if lhs.shape[1] != rhs.shape[0]:
                raise _fail(
                    expr,
                    f"'@' inner dimensions differ "
                    f"({lhs.shape[1]} vs {rhs.shape[0]})",
                )
            if lhs.element != rhs.element:
                raise _fail(expr, "'@' element types differ")
            return TensorType((lhs.shape[0], rhs.shape[1]), lhs.element)

        if isinstance(lhs, TensorType) and isinstance(rhs, TensorType):
            if lhs != rhs:
                raise _fail(
                    expr,
                    f"elementwise {expr.op!r} requires equal shapes "
                    f"({lhs} vs {rhs})",
                )
            return lhs
        if isinstance(lhs, TensorType) and isinstance(rhs, ScalarType):
            self._check_broadcast(expr, lhs.element, rhs)
            return lhs
        if isinstance(lhs, ScalarType) and isinstance(rhs, TensorType):
            self._check_broadcast(expr, rhs.element, lhs)
            return rhs
        if isinstance(lhs, ScalarType) and isinstance(rhs, ScalarType):
            if lhs != rhs:
                raise _fail(expr, f"scalar types differ ({lhs} vs {rhs})")
            return lhs
        raise _fail(expr, f"invalid operand types {lhs} and {rhs}")

    @staticmethod
    def _check_broadcast(expr: ast.BinaryOp, element: ScalarType,
                         scalar: ScalarType) -> None:
        if element != scalar and scalar.name != "f32":
            raise _fail(
                expr,
                f"cannot broadcast {scalar} against tensor of {element}",
            )

    # ------------------------------------------------------------------

    def _check_call(self, expr: ast.Call) -> Type:
        callee = expr.callee
        if callee in BUILTINS:
            if BUILTINS[callee].arity == 1:
                return self._one_tensor_arg(expr)
            return self._check_binary_call(expr)
        if callee in REDUCE_BUILTINS:
            return self._check_reduce_call(expr)
        if callee == "transpose":
            return self._check_transpose(expr)
        if callee == "reshape":
            return self._check_reshape(expr)
        if callee == "fill":
            return self._check_fill(expr)
        raise _fail(expr, f"unknown builtin {callee!r}")

    def _one_tensor_arg(self, expr: ast.Call) -> TensorType:
        if len(expr.args) != 1:
            raise _fail(expr, f"{expr.callee} takes exactly one argument")
        arg_type = self._check_expr(expr.args[0])
        if not isinstance(arg_type, TensorType):
            raise _fail(expr, f"{expr.callee} requires a tensor argument")
        return arg_type

    def _check_binary_call(self, expr: ast.Call) -> Type:
        if len(expr.args) != 2:
            raise _fail(expr, f"{expr.callee} takes exactly two arguments")
        lhs = self._check_expr(expr.args[0])
        rhs = self._check_expr(expr.args[1])
        if lhs != rhs or not isinstance(lhs, TensorType):
            raise _fail(
                expr, f"{expr.callee} requires two equal-shaped tensors"
            )
        return lhs

    def _check_reduce_call(self, expr: ast.Call) -> Type:
        source = self._one_tensor_arg(expr)
        axes = expr.int_lists.get("axes")
        if axes is None:
            axes = list(range(source.rank))
            expr.int_lists["axes"] = axes
        for axis in axes:
            if not 0 <= axis < source.rank:
                raise _fail(expr, f"reduce axis {axis} out of range")
        if len(set(axes)) != len(axes):
            raise _fail(expr, "duplicate reduce axes")
        remaining = tuple(
            dim for axis, dim in enumerate(source.shape)
            if axis not in axes
        )
        return TensorType(remaining or (1,), source.element)

    def _check_transpose(self, expr: ast.Call) -> Type:
        source = self._one_tensor_arg(expr)
        perm = expr.int_lists.get("perm")
        if perm is None:
            perm = list(reversed(range(source.rank)))
            expr.int_lists["perm"] = perm
        if sorted(perm) != list(range(source.rank)):
            raise _fail(expr, f"invalid permutation {perm}")
        return TensorType(
            tuple(source.shape[axis] for axis in perm), source.element
        )

    def _check_reshape(self, expr: ast.Call) -> Type:
        source = self._one_tensor_arg(expr)
        shape = expr.int_lists.get("shape")
        if not shape:
            raise _fail(expr, "reshape requires shape=[...]")
        total = 1
        for dim in shape:
            if dim <= 0:
                raise _fail(expr, "reshape dims must be positive")
            total *= dim
        if total != source.num_elements:
            raise _fail(
                expr,
                f"reshape element count mismatch "
                f"({total} vs {source.num_elements})",
            )
        return TensorType(tuple(shape), source.element)

    def _check_fill(self, expr: ast.Call) -> Type:
        if len(expr.args) != 1 or not isinstance(
            expr.args[0], ast.NumberLiteral
        ):
            raise _fail(expr, "fill requires a literal value argument")
        self._check_expr(expr.args[0])
        shape = expr.int_lists.get("shape")
        if not shape:
            raise _fail(expr, "fill requires shape=[...]")
        for dim in shape:
            if dim <= 0:
                raise _fail(expr, "fill dims must be positive")
        return TensorType(tuple(shape), ScalarType("f32"))


def check_program(program: ast.Program) -> List[TypeChecker]:
    """Type check every kernel; returns the per-kernel checkers."""
    seen = set()
    checkers = []
    for kernel in program.kernels:
        if kernel.name in seen:
            error = TypeCheckError(
                f"duplicate kernel name {kernel.name!r}"
            )
            error.code = "TY002"
            raise error
        seen.add(kernel.name)
        checker = TypeChecker(kernel)
        checker.check()
        checkers.append(checker)
    return checkers
