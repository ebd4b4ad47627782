"""Tests for the accumulation-interleaving pass."""

import pytest

from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.hls.cdfg import build_cdfg, loop_carried_chain
from repro.core.hls.scheduling import schedule_loop
from repro.core.ir.passes import (
    AccumulationInterleavePass,
    LoopDirectivesPass,
    LowerTensorPass,
    PassManager,
)
from tests.conftest import GEMM_SRC

STREAM = """
kernel stream(A: tensor<64xf32>) -> tensor<64xf32> {
  B = relu(A)
  return B
}
"""


def lowered(src, interleave=0):
    module = compile_kernel(src)
    manager = PassManager()
    manager.add(LowerTensorPass())
    manager.add(LoopDirectivesPass())
    if interleave:
        manager.add(AccumulationInterleavePass(factor=interleave))
    manager.run(module)
    return module


class TestInterleavePass:
    def test_tags_accumulation_loops_only(self):
        module = lowered(GEMM_SRC, interleave=4)
        tagged = [
            op for op in module.walk()
            if op.name == "kernel.for"
            and op.attr("interleave") is not None
        ]
        assert len(tagged) == 1  # only the k-loop accumulates

    def test_streaming_kernel_untouched(self):
        module = lowered(STREAM, interleave=4)
        tagged = [
            op for op in module.walk()
            if op.attr("interleave") is not None
        ]
        assert not tagged

    def test_factor_capped_by_trip_count(self):
        module = lowered(GEMM_SRC, interleave=64)
        loop = next(
            op for op in module.walk()
            if op.attr("interleave") is not None
        )
        assert loop.attr("interleave") == 16  # k-loop trip count

    def test_tensor_form_skipped(self):
        module = compile_kernel(GEMM_SRC)
        changed = AccumulationInterleavePass().run(module)
        assert not changed

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            AccumulationInterleavePass(factor=0)

    def test_idempotent(self):
        module = lowered(GEMM_SRC, interleave=4)
        assert AccumulationInterleavePass(4).run(module) is False


class TestScheduleEffect:
    def _accum_schedule(self, interleave):
        module = lowered(GEMM_SRC, interleave=interleave)
        function = module.find_function("gemm")
        cdfg = build_cdfg(function)
        loop = next(
            l for l in cdfg.innermost_loops()
            if loop_carried_chain(l)
        )
        return schedule_loop(loop)

    def test_ii_drops_with_interleave(self):
        baseline = self._accum_schedule(0)
        interleaved = self._accum_schedule(8)
        assert baseline.ii >= 6
        assert interleaved.ii < baseline.ii
        assert interleaved.ii <= 1 + baseline.ii // 4

    def test_epilogue_added_to_depth(self):
        baseline = self._accum_schedule(0)
        interleaved = self._accum_schedule(8)
        assert interleaved.depth > baseline.depth

    def test_total_cycles_improve(self):
        baseline = self._accum_schedule(0)
        interleaved = self._accum_schedule(8)
        trips = baseline.loop.trip_count
        assert interleaved.cycles_for_trips(trips) < \
            baseline.cycles_for_trips(trips)

    def test_epilogue_cycles_formula(self):
        module = lowered(GEMM_SRC, interleave=0)
        loop = next(
            l for l in build_cdfg(module.find_function("gemm"))
            .innermost_loops() if loop_carried_chain(l)
        )
        depth = schedule_loop(loop).depth
        # ceil(log2(interleave)) levels of one addf (3 cycles) each
        for interleave, epilogue in ((1, 0), (2, 3), (8, 9), (5, 9)):
            loop.interleave = interleave
            assert schedule_loop(loop).depth == depth + epilogue
