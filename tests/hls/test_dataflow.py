"""Tests for accelerator dataflow chaining."""

import pytest

from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.hls import HLSOptions, synthesize
from repro.core.hls.dataflow import chain_designs, staged_total_time_s
from repro.core.ir.passes import (
    ElementwiseFusionPass,
    LoopDirectivesPass,
    LowerTensorPass,
    PassManager,
)
from repro.errors import HLSError
from repro.platform.interconnect import OpenCAPILink

STAGE_A = """
kernel stage_a(X: tensor<2048xf32>) -> tensor<2048xf32> {
  Y = exp(X) * 0.5
  return Y
}
"""
STAGE_B = """
kernel stage_b(X: tensor<2048xf32>) -> tensor<2048xf32> {
  Y = tanh(X) + 1.0
  return Y
}
"""
STAGE_C = """
kernel stage_c(X: tensor<2048xf32>) -> tensor<2048xf32> {
  Y = relu(X - 0.2)
  return Y
}
"""


def design_for(src, name, clock_hz=250e6):
    module = compile_kernel(src)
    manager = PassManager()
    manager.add(ElementwiseFusionPass())
    manager.add(LowerTensorPass())
    manager.add(LoopDirectivesPass(unroll_factor=4))
    manager.run(module)
    return synthesize(module, name, HLSOptions(clock_hz=clock_hz))


@pytest.fixture(scope="module")
def stages():
    return [
        design_for(STAGE_A, "stage_a"),
        design_for(STAGE_B, "stage_b"),
        design_for(STAGE_C, "stage_c"),
    ]


class TestChaining:
    def test_empty_chain_rejected(self):
        with pytest.raises(HLSError):
            chain_designs([])

    def test_clock_mismatch_rejected(self):
        a = design_for(STAGE_A, "stage_a", clock_hz=250e6)
        b = design_for(STAGE_B, "stage_b", clock_hz=200e6)
        with pytest.raises(HLSError, match="clock"):
            chain_designs([a, b])

    def test_resources_sum_plus_fifos(self, stages):
        chain = chain_designs(stages)
        stage_luts = sum(s.resources.luts for s in stages)
        assert chain.resources.luts == stage_luts
        assert chain.fifo_bram_kb > 0
        assert chain.resources.bram_kb > sum(
            s.resources.bram_kb for s in stages
        )

    def test_interval_is_slowest_stage(self, stages):
        chain = chain_designs(stages)
        slowest = max(s.latency_cycles for s in stages)
        assert chain.batch_interval_s == pytest.approx(
            slowest / 250e6
        )

    def test_fill_latency_is_sum(self, stages):
        chain = chain_designs(stages)
        total = sum(s.latency_cycles for s in stages)
        assert chain.fill_latency_s == pytest.approx(total / 250e6)

    def test_total_time_formula(self, stages):
        chain = chain_designs(stages)
        assert chain.total_time_s(1) == pytest.approx(
            chain.fill_latency_s
        )
        assert chain.total_time_s(10) == pytest.approx(
            chain.fill_latency_s + 9 * chain.batch_interval_s
        )

    def test_external_traffic_smaller_than_sum(self, stages):
        chain = chain_designs(stages)
        external = chain.external_bytes_per_batch()
        total_if_staged = sum(s.data_bytes for s in stages)
        assert external < total_if_staged
        # exactly: first input + last output = 2 buffers of 8 KiB
        assert external == 2 * 2048 * 4

    def test_chain_beats_staged_execution(self, stages):
        chain = chain_designs(stages)
        link = OpenCAPILink()
        batches = 64
        chained = chain.total_time_s(batches)
        staged = staged_total_time_s(stages, link, batches)
        assert chained < 0.6 * staged

    def test_single_stage_chain(self, stages):
        chain = chain_designs(stages[:1])
        assert chain.total_time_s(5) == pytest.approx(
            5 * stages[0].latency_seconds, rel=1e-6
        )
        assert chain.external_bytes_per_batch() == \
            stages[0].data_bytes

    def test_power_sums(self, stages):
        chain = chain_designs(stages)
        assert chain.dynamic_watts == pytest.approx(
            sum(s.dynamic_watts for s in stages)
        )
