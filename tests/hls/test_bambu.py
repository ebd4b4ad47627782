"""Tests for the HLS driver and accelerator designs."""

import pytest

from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.hls import HLSOptions, synthesize
from repro.core.hls.fsmd import emit_verilog
from repro.core.ir.passes import (
    CanonicalizePass,
    ElementwiseFusionPass,
    LoopDirectivesPass,
    LowerTensorPass,
    PassManager,
    SecurityInstrumentationPass,
)
from repro.errors import HLSError

STREAM = """
kernel stream(A: tensor<512xf32>, B: tensor<512xf32>)
        -> tensor<512xf32> {
  C = exp(A) * B
  return C
}
"""

SECRET = """
kernel secret(A: tensor<64xf32> @sensitive) -> tensor<64xf32> {
  B = relu(A)
  return B
}
"""


def prepared(src, unroll=1, dift=False, crypto=False):
    module = compile_kernel(src)
    manager = PassManager()
    manager.add(ElementwiseFusionPass())
    if dift:
        manager.add(SecurityInstrumentationPass())
    manager.add(LowerTensorPass())
    manager.add(LoopDirectivesPass(unroll_factor=unroll))
    manager.add(CanonicalizePass())
    manager.run(module)
    if crypto:
        # at-rest protection, as textual IR states it
        for function in module.functions():
            function.op.set_attr("cipher", "aes128-gcm")
    return module


class TestSynthesize:
    def test_basic_design(self):
        design = synthesize(prepared(STREAM), "stream")
        assert design.latency_cycles > 0
        assert design.resources.luts > 0
        assert design.latency_seconds == pytest.approx(
            design.latency_cycles / design.options.clock_hz
        )

    def test_unknown_kernel(self):
        with pytest.raises(HLSError):
            synthesize(prepared(STREAM), "ghost")

    def test_unroll_trades_area_for_latency(self):
        slow = synthesize(prepared(STREAM, unroll=1), "stream")
        fast = synthesize(prepared(STREAM, unroll=8), "stream")
        assert fast.latency_cycles < slow.latency_cycles
        assert fast.resources.luts > slow.resources.luts

    def test_higher_clock_lower_latency_seconds(self):
        module = prepared(STREAM)
        slow = synthesize(module, "stream", HLSOptions(clock_hz=100e6))
        fast = synthesize(module, "stream", HLSOptions(clock_hz=300e6))
        assert fast.latency_seconds < slow.latency_seconds
        assert fast.latency_cycles == slow.latency_cycles

    def test_dift_adds_area_from_attr(self):
        # use a realistically sized kernel: on tiny designs the fixed
        # checker/shadow cost dominates and the ratio is meaningless
        big_secret = """
        kernel secret(A: tensor<2048xf32> @sensitive,
                      G: tensor<2048xf32>) -> tensor<2048xf32> {
          B = sigmoid(exp(A) * G + A)
          return B
        }
        """
        plain = synthesize(prepared(big_secret, unroll=4), "secret",
                           HLSOptions(enable_dift=False))
        tracked = synthesize(
            prepared(big_secret, unroll=4, dift=True), "secret"
        )
        assert tracked.taint_report is not None
        assert tracked.resources.luts > plain.resources.luts
        overhead = tracked.taint_report.area_overhead_fraction(
            tracked.resources - tracked.taint_report.extra
        )
        assert overhead < 0.15  # TaintHLS-like small overhead

    def test_crypto_core_added_for_cipher(self):
        design = synthesize(
            prepared(SECRET, dift=True, crypto=True), "secret",
        )
        assert design.crypto_core is not None
        assert design.crypto_core.name == "aes128-gcm"

    def test_dift_alone_has_no_crypto_core(self):
        design = synthesize(prepared(SECRET, dift=True), "secret")
        assert design.crypto_core is None
        assert design.taint_report is not None

    def test_bitstream_roundtrip(self):
        design = synthesize(prepared(STREAM), "stream")
        bitstream = design.bitstream()
        assert bitstream.footprint == design.resources
        assert bitstream.clock_hz == design.options.clock_hz

    def test_energy_positive(self):
        design = synthesize(prepared(STREAM), "stream")
        assert design.energy_per_invocation > 0
        assert design.dynamic_watts > 0

    def test_data_bytes(self):
        design = synthesize(prepared(STREAM), "stream")
        # two 512-float inputs + one 512-float out-param
        assert design.data_bytes == 3 * 512 * 4

    def test_report_mentions_kernel(self):
        design = synthesize(prepared(STREAM), "stream")
        report = design.report()
        assert "stream" in report
        assert "latency" in report


class TestRTL:
    def test_emit_verilog_structure(self):
        design = synthesize(prepared(STREAM), "stream")
        rtl = design.rtl()
        assert "module stream" in rtl
        assert "endmodule" in rtl
        assert "state" in rtl
        assert "assert done" in rtl

    def test_memory_interfaces_listed(self):
        design = synthesize(prepared(STREAM), "stream")
        rtl = design.rtl()
        assert "memory interface" in rtl

    def test_fsmd_state_count_positive(self):
        design = synthesize(prepared(STREAM), "stream")
        assert design.fsmd.num_states >= 3  # entry + work + done
        assert emit_verilog(design.fsmd) == design.rtl()
