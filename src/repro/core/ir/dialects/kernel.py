"""Kernel dialect: loop nests, scalar arithmetic and memory accesses.

This is the level the HLS engine consumes: explicit ``kernel.for``
loops over ``kernel.load``/``kernel.store`` on memrefs, with scalar
arithmetic in between — the moral equivalent of MLIR's scf+memref+arith
stack collapsed into one dialect.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.ir.dialects import (
    Dialect,
    OpDef,
    TRAIT_PURE,
    TRAIT_TERMINATOR,
    register_dialect,
    row_opdef,
)
from repro.core.ir.dialects.elementwise import SCALAR_OPS
from repro.core.ir.ops import Operation
from repro.core.ir.types import MemRefType, ScalarType
from repro.errors import IRError

kernel_dialect = register_dialect(
    Dialect("kernel", "loops, scalar arithmetic and memory accesses")
)


def _verify_for(op: Operation) -> None:
    for key in ("lower", "upper", "step"):
        value = op.attr(key)
        if not isinstance(value, int):
            raise IRError(f"kernel.for: integer attribute {key!r} required")
    if op.attr("step") <= 0:
        raise IRError("kernel.for: step must be positive")
    region = op.regions[0]
    if region.blocks and len(region.blocks[0].arguments) != 1:
        raise IRError(
            "kernel.for: body block must take exactly the induction "
            "variable argument"
        )


def trip_count(lower: int, upper: int, step: int) -> int:
    """Iterations of ``range(lower, upper, step)`` for a positive step."""
    return max(0, (upper - lower + step - 1) // step)


def loop_range(op: Operation) -> Tuple[int, int, int, int]:
    """``(lower, upper, step, trip)`` of a ``kernel.for``.

    The one reader of the loop range: every pass, analysis and the
    HLS front end sees the same answer. Missing bounds read as 0 and
    a missing or non-positive ``step`` reads as 1, so a malformed
    loop never divides by zero downstream; rejecting it stays the
    verifier's job (:func:`_verify_for`).
    """
    lower, upper = int(op.attr("lower", 0)), int(op.attr("upper", 0))
    step = max(1, int(op.attr("step", 1)))
    return lower, upper, step, trip_count(lower, upper, step)


def _memref_operand(op: Operation, index: int) -> MemRefType:
    value_type = op.operands[index].type
    if not isinstance(value_type, MemRefType):
        raise IRError(
            f"{op.name}: operand {index} must be a memref, got {value_type}"
        )
    return value_type


def _verify_load(op: Operation) -> None:
    memref = _memref_operand(op, 0)
    indices = op.operands[1:]
    if len(indices) != memref.rank:
        raise IRError(
            f"kernel.load: {len(indices)} indices for rank-{memref.rank} "
            f"memref"
        )
    if op.results[0].type != memref.element:
        raise IRError(
            f"kernel.load: result type {op.results[0].type} should be "
            f"{memref.element}"
        )


def _verify_store(op: Operation) -> None:
    memref = _memref_operand(op, 1)
    value_type = op.operands[0].type
    if value_type != memref.element:
        raise IRError(
            f"kernel.store: value type {value_type} should be "
            f"{memref.element}"
        )
    indices = op.operands[2:]
    if len(indices) != memref.rank:
        raise IRError(
            f"kernel.store: {len(indices)} indices for rank-{memref.rank} "
            f"memref"
        )


def _verify_binary_arith(op: Operation) -> None:
    lhs, rhs = op.operands[0].type, op.operands[1].type
    if lhs != rhs:
        raise IRError(f"{op.name}: operand types differ ({lhs} vs {rhs})")
    if not isinstance(lhs, ScalarType):
        raise IRError(f"{op.name}: operands must be scalars, got {lhs}")
    result_type = op.results[0].type
    if op.opname.startswith("cmp"):
        if result_type != ScalarType("i1"):
            raise IRError(f"{op.name}: comparison must produce i1")
    elif result_type != lhs:
        raise IRError(
            f"{op.name}: result type {result_type} should be {lhs}"
        )


def _verify_const(op: Operation) -> None:
    if op.attr("value") is None:
        raise IRError("kernel.const requires a value attribute")
    if not isinstance(op.results[0].type, ScalarType):
        raise IRError("kernel.const produces a scalar")


def _verify_alloc(op: Operation) -> None:
    if not isinstance(op.results[0].type, MemRefType):
        raise IRError("kernel.alloc produces a memref")


kernel_dialect.register(
    OpDef(name="for", min_operands=0, max_operands=0, num_results=0,
          num_regions=1, verify=_verify_for)
)
kernel_dialect.register(
    OpDef(name="yield", num_results=0,
          traits=frozenset({TRAIT_TERMINATOR}))
)
kernel_dialect.register(
    OpDef(name="load", min_operands=1, num_results=1, verify=_verify_load)
)
kernel_dialect.register(
    OpDef(name="store", min_operands=2, num_results=0, verify=_verify_store)
)
kernel_dialect.register(
    OpDef(name="alloc", min_operands=0, max_operands=0, num_results=1,
          verify=_verify_alloc)
)
kernel_dialect.register(
    OpDef(name="const", min_operands=0, max_operands=0, num_results=1,
          traits=frozenset({TRAIT_PURE}), verify=_verify_const)
)
kernel_dialect.register(OpDef(name="call", verify=None))

for _row in SCALAR_OPS:
    kernel_dialect.register(row_opdef(
        _row, _verify_binary_arith if _row.arity == 2 else None))


def _verify_view(op: Operation) -> None:
    source = _memref_operand(op, 0)
    result_type = op.results[0].type
    if not isinstance(result_type, MemRefType):
        raise IRError("kernel.view produces a memref")
    if result_type.num_elements != source.num_elements:
        raise IRError(
            f"kernel.view: element counts differ "
            f"({source.num_elements} vs {result_type.num_elements})"
        )
    if result_type.element != source.element:
        raise IRError("kernel.view: element type must be preserved")


kernel_dialect.register(
    OpDef(
        name="view",
        min_operands=1,
        max_operands=1,
        num_results=1,
        verify=_verify_view,
    )
)
