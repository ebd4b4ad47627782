"""Prepared modules are read-only and shared by every target.

A prepared module depends only on the passes that transform it (tile,
layout, DIFT, matmul order): the loop directives are HLS options, so a
CPU point and every FPGA point of one pass pipeline get the same
module, pricing never writes to it, and packaging a CPU variant finds
the module pricing prepared.
"""

import pytest

from benchmarks.e2e.inputs import kernel_input
from repro.core.compiler import EverestCompiler
from repro.core.dse.cache import clear_caches, prepared_cache
from repro.core.dse.cost_model import prepare_variant_module, price_variant
from repro.core.dse.explorer import Explorer
from repro.core.dse.space import DesignSpace
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.frontend import import_model
from repro.core.ir import print_module
from repro.core.ir.digest import module_digest
from repro.obs.driver import pipeline_from_sources

from tests.dse.test_directive_options import SPACE, THOROUGH_SOURCES


def seeded_source(index):
    kernel = kernel_input(1, index)
    return kernel.source or import_model(kernel.model).dsl_source


def test_pricing_the_thorough_space_writes_no_prepared_module():
    module = compile_kernel(THOROUGH_SOURCES["mm"])
    points = [knobs for knobs in DesignSpace.thorough().points()
              if knobs.target == "fpga"]
    prepared = {}
    for knobs in points:
        shared = prepare_variant_module(module, "mm", knobs)
        prepared[id(shared)] = (
            shared, shared.op.version, module_digest(shared),
            print_module(shared))
    assert len(prepared) == 12  # tile x DIFT x matmul order
    before = prepared_cache().stats.snapshot()
    for knobs in points:
        price_variant(module, "mm", knobs)
    assert prepared_cache().stats.delta(before).misses == 0
    for shared, version, digest, text in prepared.values():
        assert shared.op.version == version
        assert module_digest(shared) == digest
        assert print_module(shared) == text


@pytest.mark.parametrize("index", [1, 7])
def test_an_exploration_prepares_one_module_per_tile(index):
    module = compile_kernel(seeded_source(index))
    kernel = kernel_input(1, index).name
    clear_caches()
    before = prepared_cache().stats.snapshot()
    Explorer(module, kernel, space=SPACE).run("exhaustive")
    assert prepared_cache().stats.delta(before).misses == len(SPACE.tiles)


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
    pipeline = pipeline_from_sources("sharing", [seeded_source(7)])
    EverestCompiler(space=SPACE).compile(pipeline)
    assert emitted
    assert sum(delta.lookups for delta in emitted) == len(emitted)
    assert sum(delta.misses for delta in emitted) == 0
