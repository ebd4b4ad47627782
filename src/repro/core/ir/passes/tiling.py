"""Loop tiling of tensor contractions.

Applies the tile sizes a design point chose to ``tensor.matmul`` and
``tensor.contract`` — the paper's "tile complex tensor expressions to
fit the memory hierarchy" variant axis (§III-B): the explorer prices
each tile size rather than deriving one here. The decision is recorded
in a ``tile_sizes`` attribute consumed by lowering and by the HLS
engine.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.ir.module import Module
from repro.core.ir.passes.pass_manager import Pass
from repro.errors import PassError
from repro.utils.validation import check_positive

#: The ops :class:`TilingPass` rewrites.
TILABLE = ("tensor.matmul", "tensor.contract")


class MatmulLoopOrderPass(Pass):
    """Choose the loop nest order for matmul lowering.

    ``ijk`` (default) accumulates into ``C[i,j]`` in the innermost
    loop — minimal state, but the read-modify-write recurrence pins
    the pipeline II at the chain latency. ``ikj`` keeps ``A[i,k]`` in
    a register and streams over ``j`` innermost: every iteration
    touches a *different* ``C`` element, so the recurrence disappears
    and the loop pipelines at II=1 — the loop-interchange half of the
    paper's polyhedral-based memory transformations [28].
    """

    name = "matmul-loop-order"

    _ORDERS = ("ijk", "ikj")

    def __init__(self, order: str = "ikj"):
        if order not in self._ORDERS:
            raise PassError(
                f"order must be one of {self._ORDERS}, got {order!r}"
            )
        self.order = order

    def run(self, module: Module) -> bool:
        changed = False
        for func in module.functions():
            for op in func.walk():
                if op.name != "tensor.matmul":
                    continue
                if op.attr("loop_order") != self.order:
                    op.set_attr("loop_order", self.order)
                    changed = True
        return changed


class TilingPass(Pass):
    """Attach one ``tile_sizes`` to every tilable tensor op."""

    name = "tiling"

    def __init__(self, tile_sizes: Tuple[int, int, int]):
        for size in tile_sizes:
            check_positive("tile size", size)
        self.tile_sizes = tuple(tile_sizes)

    def run(self, module: Module) -> bool:
        changed = False
        for func in module.functions():
            for op in func.walk():
                if op.name not in TILABLE:
                    continue
                sizes = list(self.tile_sizes)
                if op.attr("tile_sizes") != sizes:
                    op.set_attr("tile_sizes", sizes)
                    changed = True
        return changed
