"""Work and data estimates that feed hardware/software partitioning.

The paper's partitioning is "driven by annotations" with estimation
feedback (§III-B, Fig. 1). No pass decides a kernel's target at
compile time: the explorer prices every target and the runtime picks a
variant per invocation (§IV). What the estimation side needs of a
kernel lives here — its operation count and its argument bytes
(:func:`estimate_work`) and its signature bytes
(:func:`signature_bytes`) — read by the cost model and the static
performance analyzer.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.ir.dialects.elementwise import SCALAR, TENSOR
from repro.core.ir.dialects.kernel import loop_range
from repro.core.ir.module import Function
from repro.core.ir.ops import Operation
from repro.core.ir.types import MemRefType, TensorType


def estimate_work(function: Function) -> Tuple[float, float]:
    """(operation count, argument bytes) for a function.

    Loop trip counts multiply nested work; tensor ops contribute their
    element counts (matmul its m*n*k). An elementwise or scalar op
    counts its op-table ``weight``; any other tensor op 1 per element.
    """
    total_bytes = 0.0
    for argument in function.arguments:
        arg_type = argument.type
        if isinstance(arg_type, (MemRefType, TensorType)):
            total_bytes += arg_type.size_bytes
        else:
            total_bytes += 8

    def walk_block(block, multiplier: float) -> float:
        work = 0.0
        for op in block.operations:
            work += op_work(op, multiplier)
        return work

    def op_work(op: Operation, multiplier: float) -> float:
        if op.name == "kernel.for":
            trips = loop_range(op)[3]
            inner = 0.0
            for region in op.regions:
                for block in region.blocks:
                    inner += walk_block(block, multiplier * trips)
            return inner
        if op.name == "tensor.matmul":
            lhs: TensorType = op.operands[0].type
            rhs: TensorType = op.operands[1].type
            return multiplier * 2 * lhs.shape[0] * lhs.shape[1] * \
                rhs.shape[1]
        if op.dialect == "tensor" and op.results and isinstance(
            op.results[0].type, TensorType
        ):
            weight = TENSOR[op.name].weight if op.name in TENSOR else 1.0
            return multiplier * weight * op.results[0].type.num_elements
        if op.name in SCALAR:
            return multiplier * SCALAR[op.name].weight
        if op.regions:
            inner = 0.0
            for region in op.regions:
                for block in region.blocks:
                    inner += walk_block(block, multiplier)
            return inner
        return 0.0

    work = 0.0
    for block in function.body.blocks:
        work += walk_block(block, 1.0)
    return work, max(total_bytes, 1.0)


def signature_bytes(function: Function) -> int:
    """Bytes of every tensor/memref input and result (the CPU model's
    memory term)."""
    total = 0
    for declared in function.type.inputs + function.type.results:
        if isinstance(declared, (TensorType, MemRefType)):
            total += declared.size_bytes
    return total
