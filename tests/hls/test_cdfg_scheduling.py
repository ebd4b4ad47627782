"""Tests for CDFG extraction and HLS scheduling."""

import pytest

from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.hls.cdfg import build_cdfg, loop_carried_chain
from repro.core.hls.scheduling import (
    OP_LATENCY,
    ResourceBudget,
    latency_of,
    nest_cycles,
    schedule_loop,
)
from repro.core.ir.passes import (
    LoopDirectivesPass,
    LowerTensorPass,
    PassManager,
)
from repro.errors import HLSError


def lowered(src: str, unroll: int = 1):
    module = compile_kernel(src)
    manager = PassManager()
    manager.add(LowerTensorPass())
    manager.add(LoopDirectivesPass(unroll_factor=unroll))
    manager.run(module)
    return module


VADD = """
kernel vadd(A: tensor<128xf32>, B: tensor<128xf32>) -> tensor<128xf32> {
  C = A + B
  return C
}
"""

GEMM = """
kernel gemm(A: tensor<8x8xf32>, B: tensor<8x8xf32>) -> tensor<8x8xf32> {
  C = A @ B
  return C
}
"""


class TestCDFG:
    def test_loop_tree_shape(self):
        module = lowered(GEMM)
        cdfg = build_cdfg(module.find_function("gemm"))
        loops = cdfg.all_loops()
        # zero-init (2) + matmul (3); the result writes its
        # out-parameter in place, so no copy nest
        assert len(loops) == 5
        inner = cdfg.innermost_loops()
        assert len(inner) == 2

    def test_tensor_form_rejected(self, gemm_module):
        with pytest.raises(HLSError, match="tensor ops"):
            build_cdfg(gemm_module.find_function("gemm"))

    def test_declaration_rejected(self):
        from repro.core.ir import FunctionType, Module

        module = Module("m")
        function = module.add_function("decl", FunctionType((), ()))
        with pytest.raises(HLSError, match="declaration"):
            build_cdfg(function)

    def test_ssa_dependences_wired(self):
        module = lowered(VADD)
        cdfg = build_cdfg(module.find_function("vadd"))
        body = cdfg.innermost_loops()[0].body
        add_node = next(
            n for n in body if n.op.name == "kernel.addf"
        )
        assert len(add_node.predecessors) == 2  # the two loads

    def test_loop_carried_chain_detected_in_gemm(self):
        module = lowered(GEMM)
        cdfg = build_cdfg(module.find_function("gemm"))
        # the matmul inner loop accumulates into C[i,j]
        chains = [
            loop_carried_chain(loop)
            for loop in cdfg.innermost_loops()
        ]
        assert any(chains), "expected an accumulation recurrence"

    def test_no_chain_in_streaming_kernel(self):
        module = lowered(VADD)
        cdfg = build_cdfg(module.find_function("vadd"))
        for loop in cdfg.innermost_loops():
            assert not loop_carried_chain(loop)


class TestScheduling:
    def test_latencies_defined_for_core_ops(self):
        for name in ("kernel.load", "kernel.addf", "kernel.mulf"):
            assert OP_LATENCY[name] >= 1

    def test_schedule_respects_dependences(self):
        module = lowered(VADD)
        cdfg = build_cdfg(module.find_function("vadd"))
        loop = cdfg.innermost_loops()[0]
        schedule = schedule_loop(loop)
        for node in loop.body:
            for predecessor in node.predecessors:
                assert (
                    schedule.start_cycle[id(node)]
                    >= schedule.start_cycle[id(predecessor)]
                    + latency_of(predecessor)
                )

    def test_pipelined_ii_one_for_streaming(self):
        module = lowered(VADD)
        cdfg = build_cdfg(module.find_function("vadd"))
        compute_loop = cdfg.innermost_loops()[0]
        schedule = schedule_loop(
            compute_loop,
            memory_ports={
                id(n.buffer()): 4
                for n in compute_loop.body if n.buffer() is not None
            },
        )
        assert schedule.pipelined
        assert schedule.ii == 1

    def test_recurrence_raises_ii(self):
        module = lowered(GEMM)
        cdfg = build_cdfg(module.find_function("gemm"))
        accumulating = [
            loop for loop in cdfg.innermost_loops()
            if loop_carried_chain(loop)
        ][0]
        schedule = schedule_loop(accumulating)
        assert schedule.ii >= 6  # load + add + store chain

    def test_port_limits_raise_ii(self):
        module = lowered(VADD)
        cdfg = build_cdfg(module.find_function("vadd"))
        loop = cdfg.innermost_loops()[0]
        generous = schedule_loop(
            loop, memory_ports={
                id(n.buffer()): 8
                for n in loop.body if n.buffer() is not None
            },
        )
        starved = schedule_loop(
            loop, memory_ports={
                id(n.buffer()): 1
                for n in loop.body if n.buffer() is not None
            },
        )
        assert starved.ii >= generous.ii

    def test_unroll_reduces_total_cycles(self):
        plain = lowered(VADD, unroll=1)
        unrolled = lowered(VADD, unroll=8)

        def total(module):
            cdfg = build_cdfg(module.find_function("vadd"))
            schedules = {
                id(loop): schedule_loop(loop)
                for loop in cdfg.innermost_loops()
            }
            return nest_cycles(cdfg.root, schedules)

        assert total(unrolled) < total(plain)

    def test_cycles_for_trips_pipelined_formula(self):
        module = lowered(VADD)
        cdfg = build_cdfg(module.find_function("vadd"))
        loop = cdfg.innermost_loops()[0]
        schedule = schedule_loop(loop)
        cycles = schedule.cycles_for_trips(100)
        assert cycles == schedule.depth + 99 * schedule.ii

    def test_zero_trips(self):
        module = lowered(VADD)
        cdfg = build_cdfg(module.find_function("vadd"))
        schedule = schedule_loop(cdfg.innermost_loops()[0])
        assert schedule.cycles_for_trips(0) == 0

    def test_budget_scaling(self):
        budget = ResourceBudget(fadd=2)
        assert budget.scaled(4).fadd == 8
        assert budget.limit("unknown-resource") > 10**8
