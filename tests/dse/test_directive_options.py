"""Loop directives are synthesis options, not IR rewrites.

An FPGA point's unroll and interleave factors reach HLS as
``HLSOptions.unroll`` / ``HLSOptions.interleave``, which HLS applies to
its own loop tree, so the prepared module never carries them. The
oracle here is the recipe that wrote them into the IR instead
(:func:`tests.dse.oracle.annotated_module`): the pass pipeline in its
former order — fusion → [matmul order] → [tiling] → [layout] → [DIFT]
→ lower → ``LoopDirectivesPass(u)`` → [``AccumulationInterleavePass(I)``]
→ canonicalize — synthesized with options that follow the IR's
attributes. Every FPGA estimate, report and RTL text must be the
recipe's, over seeded benchmark kernels, the thorough space and the
hand-written ``.ir`` fixtures.
"""

import re

import pytest

from repro.core.dse.cache import clear_caches
from repro.core.dse.cost_model import synthesize_variant
from repro.core.hls.bambu import synthesize
from repro.core.variants import VariantKnobs
from repro.errors import HLSError, SchedulingError
from tests.dse.oracle import (
    CASES, KERNELS, annotated_module, ir_options, seeded_kernel)


@pytest.mark.parametrize("case", CASES)
def test_every_point_prices_as_the_annotating_recipe(priced, case):
    record = priced(case)
    assert record.priced["clock-first", "cold"] == record.recipe


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
    module, kernel = seeded_kernel(1, index)
    for tile in (0, 8):
        knobs = VariantKnobs(target="fpga", unroll=unroll, tile=tile,
                             interleave=8 if tile else 1)
        new, old = designs(module, kernel, knobs)
        assert new == old, knobs.describe()
