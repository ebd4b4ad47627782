"""Knob space definition for variant exploration."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence

from repro.core.variants import VariantKnobs
from repro.errors import DSEError


@dataclass
class DesignSpace:
    """Candidate values per knob; the cross product is the space.

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
            if target not in ("cpu", "fpga", "gpu"):
                raise DSEError(f"unknown target {target!r}")
        if not self.targets:
            raise DSEError("design space needs at least one target")

    def points(self) -> Iterator[VariantKnobs]:
        """Iterate all knob combinations (deduplicated).

        CPU points ignore hardware knobs and vice versa, so the raw
        cross product collapses; duplicates are skipped.
        """
        seen = set()
        for (target, thread_count, unroll, tile, strategy, layout,
             clock, dift, order, interleave) in itertools.product(
                self.targets, self.threads, self.unrolls, self.tiles,
                self.memory_strategies, self.layouts, self.clocks_hz,
                self.dift_options, self.matmul_orders,
                self.interleaves):
            if target == "cpu":
                knobs = VariantKnobs(
                    target="cpu", threads=thread_count, tile=tile,
                    layout=layout, dift=dift, matmul_order=order,
                )
            elif target == "fpga":
                knobs = VariantKnobs(
                    target="fpga", unroll=unroll, tile=tile,
                    memory_strategy=strategy, layout=layout,
                    clock_hz=clock, dift=dift, matmul_order=order,
                    interleave=interleave,
                )
            else:
                knobs = VariantKnobs(target="gpu", tile=tile,
                                     layout=layout, dift=dift)
            if knobs not in seen:
                seen.add(knobs)
                yield knobs

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


def neighborhood(knobs: VariantKnobs, space: DesignSpace
                 ) -> List[VariantKnobs]:
    """Points differing from ``knobs`` in exactly one knob.

    Used by the evolutionary explorer for mutation.
    """
    neighbors: List[VariantKnobs] = []
    for candidate in space.points():
        differences = 0
        for attribute in (
            "target", "threads", "tile", "unroll", "memory_strategy",
            "layout", "clock_hz", "dift", "matmul_order",
            "interleave",
        ):
            if getattr(candidate, attribute) != getattr(knobs, attribute):
                differences += 1
        if differences == 1:
            neighbors.append(candidate)
    return neighbors
