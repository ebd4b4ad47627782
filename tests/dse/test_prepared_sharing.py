"""Prepared modules are read-only and shared by every target.

A prepared module depends only on the passes that transform it (tile,
layout, DIFT, matmul order), and a tile or a matmul order only when
the kernel holds an op for its pass to rewrite: the loop directives
are HLS options, so a CPU point and every FPGA point of one pass
pipeline get the same module, pricing never writes to it, and
packaging a CPU variant finds the module pricing prepared. Whatever
the pipeline leaves out, each prepared module prints as the full
pipeline's.
"""

import pytest

from repro.core.compiler import EverestCompiler
from repro.core.dse.cache import prepared_cache
from repro.core.dse.cost_model import prepare_variant_module
from repro.core.dse.space import DesignSpace
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.ir import print_module
from repro.core.ir.builder import Builder
from repro.core.ir.digest import module_digest
from repro.core.variants import VariantKnobs
from repro.obs.driver import pipeline_from_sources
from tests.dse.oracle import (
    ATTEMPTS, CASES, EXPLORED, SPACE, annotated_module, seeded_source)


def _full_pipeline_mismatches(module, kernel, points):
    """The points whose prepared module does not print as the full
    pipeline's, every knob's pass included."""
    full, mismatches = {}, []
    for knobs in points:
        pipeline = (knobs.matmul_order, knobs.tile, knobs.layout,
                    knobs.dift)
        if pipeline not in full:
            full[pipeline] = module_digest(
                annotated_module(module, knobs, directives=False))
        prepared = prepare_variant_module(module, kernel, knobs)
        if module_digest(prepared) != full[pipeline]:
            mismatches.append(knobs)
    return mismatches


@pytest.mark.parametrize("case", CASES)
def test_every_prepared_module_prints_as_the_full_pipeline(case):
    """Every point of an explored case's space, and of the thorough
    space for a fixture function: dropping a pass that finds nothing
    to rewrite changes no prepared module."""
    module, kernel = CASES[case].build()
    space = CASES[case].space or DesignSpace.thorough()
    assert _full_pipeline_mismatches(
        module, kernel, space.points()) == []


def test_an_edit_that_adds_a_matmul_brings_the_tile_back():
    """The op names are read per module version: a matmul built into
    the module after a first prepare puts the tile back into the
    pipeline."""
    module = compile_kernel("""
kernel k(A: tensor<16x16xf32>, B: tensor<16x16xf32>) -> tensor<16x16xf32> {
  C = A + B
  return C
}
""")
    tiled, untiled = VariantKnobs(tile=8), VariantKnobs()
    assert prepare_variant_module(module, "k", tiled) is \
        prepare_variant_module(module, "k", untiled)
    block = module.find_function("k").entry_block
    returned = block.operations[-1]
    (total,) = returned.operands
    returned.erase()
    builder = Builder(block)
    builder.ret([builder.matmul(total, block.arguments[1])])
    assert "tensor.matmul" in print_module(module)
    assert _full_pipeline_mismatches(module, "k", [tiled, untiled]) == []
    assert prepare_variant_module(module, "k", tiled) is not \
        prepare_variant_module(module, "k", untiled)


@pytest.mark.parametrize("case", CASES)
def test_pricing_writes_no_prepared_module(priced, case):
    """Each module pricing is handed keeps its version, digest and
    text through a cold and a warm pricing of every point, which
    prepares nothing of its own."""
    record = priced(case)
    before, after = record.prepared
    assert after == before
    for attempt in ATTEMPTS:
        assert record.builds["clock-first", attempt]["prepare"] == 0


@pytest.mark.parametrize("case", EXPLORED)
def test_pricing_prepares_one_module_per_pipeline(priced, case):
    builds = priced(case).builds
    assert builds["clock-last", "cold"]["prepare"] == CASES[case].pipelines
    assert builds["clock-last", "warm memo"]["prepare"] == 0


def test_packaging_cpu_variants_prepares_nothing_again(monkeypatch):
    """Emission prepares each CPU variant's module; every one is the
    module pricing already prepared for the FPGA points."""
    emitted = []
    build = EverestCompiler._build_artifact

    def counting(self, module, variant, digest, sources):
        before = prepared_cache().stats.snapshot()
        artifact = build(self, module, variant, digest, sources)
        if variant.knobs.target == "cpu":
            emitted.append(prepared_cache().stats.delta(before))
        return artifact

    monkeypatch.setattr(EverestCompiler, "_build_artifact", counting)
    pipeline = pipeline_from_sources("sharing", [seeded_source(1, 7)])
    EverestCompiler(space=SPACE).compile(pipeline)
    assert emitted
    assert sum(delta.lookups for delta in emitted) == len(emitted)
    assert sum(delta.misses for delta in emitted) == 0
