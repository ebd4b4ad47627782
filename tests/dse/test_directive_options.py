"""Loop directives are synthesis options, not IR rewrites.

An FPGA point's unroll and interleave factors reach HLS as
``HLSOptions.unroll`` / ``HLSOptions.interleave``, which HLS applies to
its own loop tree, so the prepared module never carries them. The
oracle here is the recipe that wrote them into the IR instead: the pass
pipeline in its former order — fusion → [matmul order] → [tiling] →
[layout] → [DIFT] → lower → ``LoopDirectivesPass(u)`` →
[``AccumulationInterleavePass(I)``] → canonicalize — synthesized with
options that follow the IR's attributes. Every FPGA estimate, report
and RTL text must be the recipe's, over seeded benchmark kernels, the
thorough space and the hand-written ``.ir`` fixtures (four of which
carry their own ``unroll`` / ``pipeline_ii`` / ``interleave``).
"""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.e2e.inputs import kernel_input
from repro.core.dse import cost_model
from repro.core.dse.cache import clear_caches
from repro.core.dse.cost_model import (
    ArchitectureModel,
    price_variant,
    synthesize_variant,
)
from repro.core.dse.space import DesignSpace
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.frontend import import_model
from repro.core.hls.bambu import hls_options_for, synthesize
from repro.core.ir import parse_module
from repro.core.ir.passes import (
    AccumulationInterleavePass,
    CanonicalizePass,
    DataLayoutPass,
    ElementwiseFusionPass,
    LoopDirectivesPass,
    LowerTensorPass,
    MatmulLoopOrderPass,
    PassManager,
    SecurityInstrumentationPass,
    TilingPass,
)
from repro.core.store import encode
from repro.core.variants import VariantKnobs
from repro.errors import HLSError, SchedulingError

#: The shape of the end-to-end benchmark's space.
SPACE = DesignSpace(
    targets=("cpu", "fpga"),
    threads=(1, 2, 4, 8),
    unrolls=(1, 2, 4, 8),
    tiles=(0, 8),
    memory_strategies=("auto", "cyclic", "none"),
    clocks_hz=(250e6, 350e6),
)
#: Seeded benchmark kernels (seed 1): chains, an imported MLP, a
#: reduction (``mean``) and two matmuls.
KERNELS = (0, 1, 2, 4, 7, 8)
FIXTURES = sorted(
    (Path(__file__).parents[1] / "analysis" / "fixtures").glob("*.ir"))
MODEL = ArchitectureModel()

#: Two small kernels for the thorough space (an interleavable matmul
#: accumulation and an element-wise chain).
THOROUGH_SOURCES = {
    "mm": """
kernel mm(A: tensor<8x8xf32>, B: tensor<8x8xf32>) -> tensor<8x8xf32> {
  C = relu(A @ B)
  return C
}
""",
    "ew": """
kernel ew(X: tensor<16xf32>, Y: tensor<16xf32>) -> tensor<16xf32> {
  Z = sigmoid(exp(X) * Y + X)
  return Z
}
""",
}


def seeded_kernel(index):
    kernel = kernel_input(1, index)
    source = kernel.source or import_model(kernel.model).dsl_source
    return compile_kernel(source), kernel.name


def fixture_kernels():
    for path in FIXTURES:
        module = parse_module(path.read_text())
        for function in module.functions():
            if not function.is_declaration:
                yield pytest.param(module, function.name,
                                   id=f"{path.stem}:{function.name}")


def annotated_module(module, knobs):
    """The prepared module the former recipe built: the directives are
    written into the IR before canonicalization."""
    manager = PassManager(verify_each=False)
    manager.add(ElementwiseFusionPass())
    if knobs.matmul_order != "ijk":
        manager.add(MatmulLoopOrderPass(knobs.matmul_order))
    if knobs.tile:
        manager.add(TilingPass(
            tile_sizes=(knobs.tile, knobs.tile, knobs.tile)))
    if knobs.layout in ("aos", "soa"):
        manager.add(DataLayoutPass(knobs.layout))
    if knobs.dift:
        manager.add(SecurityInstrumentationPass())
    manager.add(LowerTensorPass())
    manager.add(LoopDirectivesPass(unroll_factor=knobs.unroll))
    if knobs.interleave > 1:
        manager.add(AccumulationInterleavePass(knobs.interleave))
    manager.add(CanonicalizePass())
    clone = module.clone()
    manager.run(clone)
    return clone


def ir_options(knobs):
    """The knob's options, but the loop directives read from the IR."""
    return replace(hls_options_for(knobs), unroll=None, interleave=None)


def outcome(call):
    """``call()``'s encoded estimate, or the error it raised."""
    try:
        return encode(call())
    except Exception as exc:  # compared, not hidden
        return type(exc).__name__, str(exc)


def fpga_points(space):
    return [knobs for knobs in space.points() if knobs.target == "fpga"]


def assert_priced_as_annotated(module, kernel, points, monkeypatch):
    clear_caches()
    priced = [outcome(lambda: price_variant(module, kernel, knobs, MODEL))
              for knobs in points]
    annotated = {}

    def prepare(module, kernel, knobs, digest=None):
        key = (knobs.matmul_order, knobs.tile, knobs.layout, knobs.dift,
               knobs.unroll, knobs.interleave)
        if key not in annotated:
            annotated[key] = annotated_module(module, knobs)
        return annotated[key]

    with monkeypatch.context() as patch:
        patch.setattr(cost_model, "prepare_variant_module", prepare)
        patch.setattr(cost_model, "hls_options_for", ir_options)
        recipe = [
            outcome(lambda: price_variant(module, kernel, knobs, MODEL))
            for knobs in points]
    for knobs, new, old in zip(points, priced, recipe):
        assert new == old, knobs.describe()


@pytest.mark.parametrize("index", KERNELS)
def test_e2e_space_prices_as_the_annotating_recipe(index, monkeypatch):
    module, kernel = seeded_kernel(index)
    assert_priced_as_annotated(
        module, kernel, fpga_points(SPACE), monkeypatch)


@pytest.mark.parametrize("kernel", sorted(THOROUGH_SOURCES))
def test_thorough_space_prices_as_the_annotating_recipe(
        kernel, monkeypatch):
    module = compile_kernel(THOROUGH_SOURCES[kernel])
    assert_priced_as_annotated(
        module, kernel, fpga_points(DesignSpace.thorough()), monkeypatch)


@pytest.mark.parametrize("module,kernel", fixture_kernels())
def test_fixtures_price_as_the_annotating_recipe(
        module, kernel, monkeypatch):
    points = [knobs for knobs in fpga_points(SPACE)
              if knobs.clock_hz == SPACE.clocks_hz[0]]
    points += [replace(knobs, interleave=8) for knobs in points]
    assert_priced_as_annotated(module, kernel, points, monkeypatch)


def without_value_numbers(text):
    return re.sub(r"v\d+", "v", text)


def designs(module, kernel, knobs):
    """``(report, rtl)`` of the point built both ways."""
    clear_caches()
    built = []
    for build in (
        lambda: synthesize_variant(module, kernel, knobs),
        lambda: synthesize(annotated_module(module, knobs), kernel,
                           ir_options(knobs)),
    ):
        try:
            design = build()
        except (HLSError, SchedulingError) as exc:
            built.append(str(exc))
        else:
            built.append((design.report(),
                          without_value_numbers(design.rtl())))
    return built


@pytest.mark.parametrize("unroll", [1, 4])
@pytest.mark.parametrize("index", KERNELS)
def test_report_and_rtl_are_the_annotating_recipes(index, unroll):
    module, kernel = seeded_kernel(index)
    for tile in (0, 8):
        knobs = VariantKnobs(target="fpga", unroll=unroll, tile=tile,
                             interleave=8 if tile else 1)
        new, old = designs(module, kernel, knobs)
        assert new == old, knobs.describe()
