"""Experiment ben-productivity — §VI-D "design productivity" and
"programmability support".

"Non-expert programmers will use domain-specific extensions to
express the semantics ... the EVEREST SDK will hide the platform
details to the application, enabling the porting across target
platforms." One application specification is compiled, unchanged, for
three very different nodes; the table reports what the SDK generates
from how little input.
"""

from __future__ import annotations

from repro.core.backend.sycl_gen import generate_sycl
from repro.core.compiler import EverestCompiler
from repro.core.dse.cost_model import (
    ArchitectureModel,
    prepare_variant_module,
)
from repro.core.dse.space import DesignSpace
from repro.core.dsl.workflow import Pipeline
from repro.core.ir import F32, TensorType
from repro.platform.interconnect import EthernetLink, PCIeLink
from repro.platform.resources import CPUDescription, FPGAResources
from repro.utils.tables import Table

APP_SRC = """
kernel score(X: tensor<512xf32>, G: tensor<512xf32>)
        -> tensor<512xf32> {
  Y = sigmoid(exp(X) * G)
  return Y
}
"""

TARGET_NODES = {
    "power9+capi": ArchitectureModel(),
    "edge-arm+fpga": ArchitectureModel(
        name="edge",
        cpu=CPUDescription("ARM", cores=4, frequency_hz=1.5e9,
                           flops_per_cycle=2.0, tdp_watts=8.0,
                           idle_watts=1.5),
        fpga_role_capacity=FPGAResources(
            luts=97_000, ffs=204_000, bram_kb=4_500, dsps=1_238
        ),
        fpga_link=PCIeLink(lanes=4),
        host_memory_bandwidth=12.8e9,
        base_clock_hz=250e6,
    ),
    "cloudfpga": ArchitectureModel(
        name="cloudfpga",
        cpu=CPUDescription("x86-host", cores=8,
                           frequency_hz=2.8e9,
                           flops_per_cycle=8.0),
        fpga_role_capacity=FPGAResources(
            luts=271_000, ffs=573_000, bram_kb=35_500, dsps=2_720
        ),
        fpga_link=EthernetLink(gbps=10.0, protocol="udp"),
        base_clock_hz=300e6,
    ),
}


def build_pipeline() -> Pipeline:
    pipeline = Pipeline("portable-app")
    x = pipeline.source("x", TensorType((512,), F32))
    g = pipeline.source("g", TensorType((512,), F32))
    task = pipeline.task("score", APP_SRC, inputs=[x, g])
    pipeline.sink("out", task.output(0))
    return pipeline


def test_productivity_one_spec_three_targets(benchmark):
    spec_lines = len([
        line for line in APP_SRC.strip().splitlines()
        if line.strip() and not line.strip().startswith("#")
    ])

    table = Table(
        "ben-productivity: one DSL spec "
        f"({spec_lines} lines) compiled per target",
        ["target", "variants", "hw", "sw", "best lat us",
         "best energy uJ", "chosen"],
    )
    results = {}
    for target_name, model in TARGET_NODES.items():
        compiler = EverestCompiler(
            space=DesignSpace(
                targets=("cpu", "fpga"), threads=(1, 4),
                unrolls=(1, 4, 8),
                clocks_hz=(150e6, 250e6),
            ),
            model=model,
            emit_artifacts=False,
        )
        app = compiler.compile(build_pipeline())
        result = app.exploration["score"]
        best = result.best_latency()
        results[target_name] = (app, result, best)
        table.add_row(
            target_name,
            len(result.feasible),
            sum(1 for v in result.feasible if v.is_hardware),
            sum(1 for v in result.feasible if not v.is_hardware),
            best.cost.latency_s * 1e6,
            result.best_energy().cost.energy_j * 1e6,
            best.knobs.describe(),
        )
    table.show()

    # the same unchanged spec compiles everywhere with feasible
    # variants of both classes
    for target_name, (_app, result, _best) in results.items():
        assert result.feasible, target_name
        assert any(v.is_hardware for v in result.feasible), target_name
        assert any(not v.is_hardware for v in result.feasible), \
            target_name
    # targets genuinely differ: the chosen best differs in knobs or cost
    latencies = {
        round(best.cost.latency_s * 1e9)
        for _t, (_a, _r, best) in results.items()
    }
    assert len(latencies) >= 2

    pipeline = build_pipeline()
    compiler = EverestCompiler(
        space=DesignSpace.small(), emit_artifacts=False
    )
    benchmark(lambda: compiler.compile(pipeline))


def test_productivity_generated_artifacts(benchmark):
    """Lines of input vs lines of generated implementation."""
    from repro.core.hls.bambu import HLSOptions, synthesize
    from repro.core.variants import VariantKnobs

    module_src_lines = len([
        line for line in APP_SRC.strip().splitlines()
        if line.strip() and not line.strip().startswith("#")
    ])
    from repro.core.dsl.kernel_dsl import compile_kernel

    module = compile_kernel(APP_SRC)
    knobs = VariantKnobs(target="cpu", threads=4)
    prepared = prepare_variant_module(module, "score", knobs)
    sycl_text = generate_sycl(prepared, "score")

    hw_knobs = VariantKnobs(target="fpga", unroll=4)
    hw_prepared = prepare_variant_module(module, "score", hw_knobs)
    design = synthesize(hw_prepared, "score", HLSOptions())
    rtl_text = design.rtl()

    table = Table(
        "ben-productivity: generated artifacts from the one spec",
        ["artifact", "lines"],
    )
    table.add_row("DSL input", module_src_lines)
    table.add_row("generated SYCL C++", len(sycl_text.splitlines()))
    table.add_row("generated pseudo-RTL", len(rtl_text.splitlines()))
    table.show()

    assert len(sycl_text.splitlines()) > 3 * module_src_lines
    assert len(rtl_text.splitlines()) > 5 * module_src_lines
    assert "parallel_for" in sycl_text
    assert "module score" in rtl_text

    benchmark(lambda: generate_sycl(prepared, "score"))
