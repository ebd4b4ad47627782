"""Compiler passes over the unified IR.

The middle-end of Fig. 1: canonicalization, tensor-level optimization
(fusion, tiling, data layout), lowering to kernel loops and security
instrumentation. Passes are
composable through :class:`~repro.core.ir.passes.pass_manager.PassManager`.
"""

from repro.core.ir.passes.pass_manager import Pass, PassManager
from repro.core.ir.passes.canonicalize import (
    CanonicalizePass,
    ConstantFoldPass,
    CSEPass,
    DCEPass,
)
from repro.core.ir.passes.fusion import ElementwiseFusionPass
from repro.core.ir.passes.tiling import MatmulLoopOrderPass, TilingPass
from repro.core.ir.passes.layout import DataLayoutPass
from repro.core.ir.passes.unroll import LoopDirectivesPass
from repro.core.ir.passes.interleave import AccumulationInterleavePass
from repro.core.ir.passes.lower_tensor import LowerTensorPass
from repro.core.ir.passes.security import SecurityInstrumentationPass

__all__ = [
    "Pass",
    "PassManager",
    "CanonicalizePass",
    "ConstantFoldPass",
    "CSEPass",
    "DCEPass",
    "ElementwiseFusionPass",
    "TilingPass",
    "MatmulLoopOrderPass",
    "DataLayoutPass",
    "LoopDirectivesPass",
    "AccumulationInterleavePass",
    "LowerTensorPass",
    "SecurityInstrumentationPass",
]
