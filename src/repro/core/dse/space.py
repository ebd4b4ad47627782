"""Knob space definition for variant exploration."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, Sequence

from repro.core.variants import VariantKnobs
from repro.errors import DSEError


#: The knobs each target reads, in the cross product's nesting order;
#: its rows are the targets the cost model prices.
_TARGET_KNOBS = {
    "cpu": ("threads", "tile", "layout", "dift", "matmul_order"),
    "fpga": ("unroll", "tile", "memory_strategy", "layout", "clock_hz",
             "dift", "matmul_order", "interleave"),
}


@dataclass
class DesignSpace:
    """Candidate values per knob; each target's points are the cross
    product of the knobs it reads.

    Software variants sweep thread counts; hardware variants sweep
    unroll factors, clocks and memory strategies. Layout applies to
    both (it changes the generated access pattern).
    """

    targets: Sequence[str] = ("cpu", "fpga")
    threads: Sequence[int] = (1, 2, 4, 8)
    unrolls: Sequence[int] = (1, 2, 4, 8)
    tiles: Sequence[int] = (0,)
    memory_strategies: Sequence[str] = ("auto",)
    layouts: Sequence[str] = ("row_major",)
    clocks_hz: Sequence[float] = (250e6,)
    dift_options: Sequence[bool] = (False,)
    matmul_orders: Sequence[str] = ("ijk",)
    interleaves: Sequence[int] = (1,)

    def __post_init__(self):
        for target in self.targets:
            if target not in _TARGET_KNOBS:
                raise DSEError(
                    f"cost model cannot price target {target!r}")
        if not self.targets:
            raise DSEError("design space needs at least one target")
        for knob, values in self._knob_values().items():
            if not values:
                raise DSEError(f"design space knob {knob!r} has no values")

    def _knob_values(self) -> Dict[str, Sequence]:
        """Each knob's candidate values, by ``VariantKnobs`` field."""
        return {
            "threads": self.threads, "unroll": self.unrolls,
            "tile": self.tiles, "memory_strategy": self.memory_strategies,
            "layout": self.layouts, "clock_hz": self.clocks_hz,
            "dift": self.dift_options, "matmul_order": self.matmul_orders,
            "interleave": self.interleaves,
        }

    def points(self) -> Iterator[VariantKnobs]:
        """Every distinct knob assignment: each target once, in order,
        over the product of the knobs it reads, each knob's values
        taken once, in order — the order in which the whole cross
        product, deduplicated, would first reach them."""
        candidates = self._knob_values()
        for target in dict.fromkeys(self.targets):
            knobs = _TARGET_KNOBS[target]
            for values in itertools.product(*(
                    dict.fromkeys(candidates[knob]) for knob in knobs)):
                yield VariantKnobs(target, **dict(zip(knobs, values)))

    def size(self) -> int:
        """Number of distinct points."""
        return sum(1 for _ in self.points())

    @staticmethod
    def small() -> "DesignSpace":
        """A compact space for tests and quick runs."""
        return DesignSpace(
            targets=("cpu", "fpga"),
            threads=(1, 4),
            unrolls=(1, 4),
        )

    @staticmethod
    def thorough() -> "DesignSpace":
        """The full space used by the fig1 benchmark."""
        return DesignSpace(
            targets=("cpu", "fpga"),
            threads=(1, 2, 4, 8, 16),
            unrolls=(1, 2, 4, 8, 16),
            tiles=(0, 8, 16),
            memory_strategies=("auto", "cyclic", "block", "none"),
            layouts=("row_major",),
            clocks_hz=(150e6, 250e6, 350e6),
            dift_options=(False, True),
            matmul_orders=("ijk", "ikj"),
            interleaves=(1, 8),
        )

