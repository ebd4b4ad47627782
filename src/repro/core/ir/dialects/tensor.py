"""Tensor dialect: high-level tensor expressions.

This is the data-centric abstraction of the paper (§III-B, [14-16]):
contractions, elementwise arithmetic, reductions and shape ops over
dense tensors with static shapes. Passes tile/fuse these before they
are lowered to kernel-dialect loop nests.
"""

from __future__ import annotations

from repro.core.ir.dialects import (
    Dialect,
    OpDef,
    TRAIT_PURE,
    register_dialect,
    row_opdef,
)
from repro.core.ir.dialects.elementwise import REDUCE, TENSOR_OPS
from repro.core.ir.ops import Operation
from repro.core.ir.types import ScalarType, TensorType
from repro.errors import IRError

tensor_dialect = register_dialect(
    Dialect("tensor", "dense tensor expressions")
)


def _tensor_type(op: Operation, value_index: int) -> TensorType:
    value = op.operands[value_index]
    if not isinstance(value.type, TensorType):
        raise IRError(
            f"{op.name}: operand {value_index} must be a tensor, "
            f"got {value.type}"
        )
    return value.type


def _verify_elementwise(op: Operation) -> None:
    first = _tensor_type(op, 0)
    for index in range(1, len(op.operands)):
        other = _tensor_type(op, index)
        if other.shape != first.shape or other.element != first.element:
            raise IRError(
                f"{op.name}: operand shapes/elements differ: "
                f"{first} vs {other}"
            )
    result = op.results[0].type
    if result != first:
        raise IRError(
            f"{op.name}: result type {result} must match operand {first}"
        )


def _verify_matmul(op: Operation) -> None:
    lhs, rhs = _tensor_type(op, 0), _tensor_type(op, 1)
    if lhs.rank != 2 or rhs.rank != 2:
        raise IRError(f"{op.name}: operands must be rank-2")
    if lhs.shape[1] != rhs.shape[0]:
        raise IRError(
            f"{op.name}: inner dimensions differ "
            f"({lhs.shape[1]} vs {rhs.shape[0]})"
        )
    result = op.results[0].type
    expected = TensorType((lhs.shape[0], rhs.shape[1]), lhs.element)
    if result != expected:
        raise IRError(
            f"{op.name}: result {result} should be {expected}"
        )


def _verify_contract(op: Operation) -> None:
    spec = op.attr("indexing")
    if not isinstance(spec, str) or "->" not in spec:
        raise IRError(
            "tensor.contract requires an einsum-style 'indexing' attribute"
        )
    inputs_spec = spec.split("->")[0].split(",")
    if len(inputs_spec) != len(op.operands):
        raise IRError(
            f"tensor.contract: {len(inputs_spec)} index groups but "
            f"{len(op.operands)} operands"
        )
    for group, operand in zip(inputs_spec, op.operands):
        operand_type = operand.type
        if not isinstance(operand_type, TensorType):
            raise IRError("tensor.contract operands must be tensors")
        if len(group.strip()) != operand_type.rank:
            raise IRError(
                f"tensor.contract: index group {group.strip()!r} does "
                f"not match rank-{operand_type.rank} operand"
            )


def _verify_transpose(op: Operation) -> None:
    source = _tensor_type(op, 0)
    perm = op.attr("permutation")
    if not isinstance(perm, (list, tuple)) or sorted(perm) != list(
        range(source.rank)
    ):
        raise IRError(
            f"tensor.transpose: permutation {perm!r} invalid for "
            f"rank {source.rank}"
        )
    expected = TensorType(
        tuple(source.shape[axis] for axis in perm), source.element
    )
    if op.results[0].type != expected:
        raise IRError(
            f"tensor.transpose: result should be {expected}"
        )


def _verify_reduce(op: Operation) -> None:
    source = _tensor_type(op, 0)
    axes = op.attr("axes")
    if not isinstance(axes, (list, tuple)) or not axes:
        raise IRError("tensor.reduce requires non-empty 'axes'")
    for axis in axes:
        if not 0 <= axis < source.rank:
            raise IRError(
                f"tensor.reduce: axis {axis} out of range for "
                f"rank {source.rank}"
            )
    if op.attr("kind") not in REDUCE:
        raise IRError(
            f"tensor.reduce: kind must be {'/'.join(REDUCE)}")


def _verify_constant(op: Operation) -> None:
    if op.attr("value") is None:
        raise IRError("tensor.constant requires a value attribute")


for _row in TENSOR_OPS:
    tensor_dialect.register(row_opdef(_row, _verify_elementwise))

tensor_dialect.register(
    OpDef(
        name="matmul",
        min_operands=2,
        max_operands=2,
        num_results=1,
        traits=frozenset({TRAIT_PURE}),
        verify=_verify_matmul,
    )
)
tensor_dialect.register(
    OpDef(
        name="contract",
        min_operands=1,
        num_results=1,
        traits=frozenset({TRAIT_PURE}),
        verify=_verify_contract,
    )
)
tensor_dialect.register(
    OpDef(
        name="transpose",
        min_operands=1,
        max_operands=1,
        num_results=1,
        traits=frozenset({TRAIT_PURE}),
        verify=_verify_transpose,
    )
)
tensor_dialect.register(
    OpDef(
        name="reduce",
        min_operands=1,
        max_operands=1,
        num_results=1,
        traits=frozenset({TRAIT_PURE}),
        verify=_verify_reduce,
    )
)
tensor_dialect.register(
    OpDef(
        name="constant",
        min_operands=0,
        max_operands=0,
        num_results=1,
        traits=frozenset({TRAIT_PURE}),
        verify=_verify_constant,
    )
)
def _verify_splat(op: Operation) -> None:
    scalar = op.operands[0].type
    result = op.results[0].type
    if not isinstance(scalar, ScalarType):
        raise IRError("tensor.splat operand must be a scalar")
    if not isinstance(result, TensorType) or result.element != scalar:
        raise IRError(
            f"tensor.splat: result must be a tensor of {scalar}"
        )


tensor_dialect.register(
    OpDef(
        name="splat",
        min_operands=1,
        max_operands=1,
        num_results=1,
        traits=frozenset({TRAIT_PURE}),
        verify=_verify_splat,
    )
)
tensor_dialect.register(
    OpDef(
        name="reshape",
        min_operands=1,
        max_operands=1,
        num_results=1,
        traits=frozenset({TRAIT_PURE}),
    )
)
