"""Hardware/software partitioning.

Decides, per kernel function, whether to offload to the FPGA or stay on
the CPU. The paper states partitioning "will be driven by annotations"
with estimation feedback (§III-B, Fig. 1): an explicit
``everest.target`` annotation wins; otherwise a simple operational-
intensity heuristic offloads compute-dense kernels (many operations per
byte of argument data) and keeps data-light or control-heavy kernels in
software. Functions chosen for hardware also receive an
``hw.accelerator`` marker op in the module for the backend.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.ir.dialects.elementwise import SCALAR, TENSOR
from repro.core.ir.dialects.kernel import loop_range
from repro.core.ir.module import Function, Module
from repro.core.ir.ops import Operation
from repro.core.ir.passes.pass_manager import Pass
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


class HardwarePartitioningPass(Pass):
    """Assign each function a cpu/fpga target and emit hw.accelerator."""

    name = "hw-partitioning"

    def __init__(self, intensity_threshold: float = 4.0,
                 min_work: float = 10_000.0):
        self.intensity_threshold = intensity_threshold
        self.min_work = min_work

    def run(self, module: Module) -> bool:
        changed = False
        for function in module.functions():
            decided = self._decide(function)
            if function.op.attr("target") != decided:
                function.op.set_attr("target", decided)
                changed = True
            if decided == "fpga" and not self._has_marker(module,
                                                          function.name):
                marker = Operation(
                    "hw.accelerator",
                    attributes={"kernel": function.name},
                )
                module.body.append(marker)
                changed = True
        return changed

    def _decide(self, function: Function) -> str:
        annotation = function.op.attr("everest.target")
        if annotation in ("cpu", "fpga", "gpu"):
            return annotation
        work, data_bytes = estimate_work(function)
        intensity = work / data_bytes
        if work >= self.min_work and intensity >= self.intensity_threshold:
            return "fpga"
        return "cpu"

    @staticmethod
    def _has_marker(module: Module, kernel_name: str) -> bool:
        return any(
            op.name == "hw.accelerator" and op.attr("kernel") == kernel_name
            for op in module.body.operations
        )
