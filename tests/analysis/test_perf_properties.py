"""Property-based soundness of the static performance bounds.

The contract under test: for every kernel and every knob point, the
cost model's priced latency and energy are never *below* the analytic
lower bound :func:`bound_for` derives for that point. CPU bounds are
float-exact (they share :func:`cpu_cost_terms` with the model); FPGA
bounds must stay below the scheduled cost by construction — the
analyzer and the scheduler call the same :mod:`repro.core.timing`
functions, the analyzer with a subset of the terms — and the two inner
links of that chain are checked on their own: the cycle floor against
the synthesized design's cycles, and (where the knobs keep the
baseline loop structure) each nest's II floor against the scheduled II.

Kernels come from two sources: the shipped example kernels (gemm, mlp,
stream) over a dense knob grid, and hypothesis-generated random DSL
programs (matmul seeds plus elementwise chains) over sampled knobs.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.analysis.perf import (  # noqa: E402
    _structure_preserving,
    compute_kernel_bounds,
    fpga_cycles_lower_bound,
    nest_floors,
)
from repro.core.dse.cost_model import (  # noqa: E402
    ArchitectureModel,
    bound_for,
    evaluate_variant,
    prepare_variant_module,
)
from repro.core.dsl.kernel_dsl import compile_kernel  # noqa: E402
from repro.core.hls.bambu import hls_options_for, synthesize  # noqa: E402
from repro.core.variants import VariantKnobs  # noqa: E402
from tests.conftest import examples  # noqa: E402

_REL_TOL = 1e-9


def assert_sound(module, kernel, knobs_list):
    bounds = compute_kernel_bounds(module, kernel)
    assert bounds is not None
    model = ArchitectureModel()
    for knobs in knobs_list:
        cost = evaluate_variant(module, kernel, knobs)
        if not cost.feasible:
            # infeasible points price at +inf: vacuously above any
            # bound, and the explorer never admits them anyway.
            continue
        lat_lb, en_lb = bound_for(bounds, knobs, model)
        assert lat_lb < math.inf, (
            f"{kernel}/{knobs.describe()}: bound says infeasible but "
            f"the cost model priced it"
        )
        assert (
            cost.latency_s >= lat_lb
            or math.isclose(cost.latency_s, lat_lb, rel_tol=_REL_TOL)
        ), (
            f"{kernel}/{knobs.describe()}: latency {cost.latency_s!r}"
            f" below bound {lat_lb!r}"
        )
        assert (
            cost.energy_j >= en_lb
            or math.isclose(cost.energy_j, en_lb, rel_tol=_REL_TOL)
        ), (
            f"{kernel}/{knobs.describe()}: energy {cost.energy_j!r}"
            f" below bound {en_lb!r}"
        )
        if knobs.target == "fpga":
            assert_cycle_links_sound(module, kernel, knobs, bounds)


def assert_cycle_links_sound(module, kernel, knobs, bounds):
    """cycle floor <= synthesized cycles; II floor <= scheduled II."""
    design = synthesize(
        prepare_variant_module(module, kernel, knobs), kernel,
        hls_options_for(knobs),
    )
    floor = fpga_cycles_lower_bound(bounds, knobs)
    assert floor <= design.latency_cycles, (
        f"{kernel}/{knobs.describe()}: cycle floor {floor} above the "
        f"synthesized {design.latency_cycles}"
    )
    if not _structure_preserving(knobs):
        return
    loops = [loop for loop in design.cdfg.innermost_loops()
             if loop.trip_count > 0]
    floors = list(nest_floors(
        bounds, knobs.unroll, knobs.memory_strategy))
    assert [nest.trip for nest, _, _, _ in floors] == [
        loop.trip_count for loop in loops]
    for (nest, ii, binding, _), loop in zip(floors, loops):
        scheduled = design.schedules[id(loop)].ii
        assert ii <= scheduled, (
            f"{nest.anchor}/{knobs.describe()}: II floor {ii} "
            f"({binding}) above the scheduled II {scheduled}"
        )


def knob_grid():
    """A dense deterministic grid over both targets."""
    points = []
    for threads in (1, 4, 16):
        for tile in (0, 8):
            for dift in (False, True):
                points.append(VariantKnobs(
                    target="cpu", threads=threads, tile=tile,
                    dift=dift,
                ))
    for unroll in (1, 2, 8):
        for tile in (0, 8):
            for clock in (150e6, 250e6):
                points.append(VariantKnobs(
                    target="fpga", unroll=unroll, tile=tile,
                    clock_hz=clock,
                ))
    points.append(VariantKnobs(
        target="fpga", unroll=4, matmul_order="ikj",
    ))
    points.append(VariantKnobs(
        target="fpga", unroll=4, interleave=8,
    ))
    points.append(VariantKnobs(
        target="fpga", unroll=2, memory_strategy="none",
    ))
    return points


class TestExampleKernelsAreSound:
    def test_gemm(self, gemm_module):
        assert_sound(gemm_module, "gemm", knob_grid())

    def test_mlp(self, mlp_module):
        assert_sound(mlp_module, "mlp", knob_grid())

    def test_stream(self, stream_module):
        assert_sound(stream_module, "stream", knob_grid())


# ---------------------------------------------------------------------------
# Random DSL kernels


_DIMS = (4, 8, 16)
_ELEMENTWISE = ("relu", "sigmoid", "exp", "+", "*")


@st.composite
def kernel_sources(draw):
    """A matmul seed followed by a short elementwise chain."""
    n = draw(st.sampled_from(_DIMS))
    k = draw(st.sampled_from(_DIMS))
    m = draw(st.sampled_from(_DIMS))
    chain = draw(st.lists(
        st.sampled_from(_ELEMENTWISE), min_size=0, max_size=3,
    ))
    lines = [
        f"kernel k(A: tensor<{n}x{k}xf32>, B: tensor<{k}x{m}xf32>,"
        f" C: tensor<{n}x{m}xf32>) -> tensor<{n}x{m}xf32> {{",
        "  T0 = A @ B",
    ]
    cur = "T0"
    for index, op in enumerate(chain, start=1):
        if op in ("+", "*"):
            lines.append(f"  T{index} = {cur} {op} C")
        else:
            lines.append(f"  T{index} = {op}({cur})")
        cur = f"T{index}"
    lines.append(f"  return {cur}")
    lines.append("}")
    return "\n".join(lines)


@st.composite
def knob_points(draw):
    if draw(st.booleans()):
        return VariantKnobs(
            target="cpu",
            threads=draw(st.sampled_from((1, 2, 4, 16))),
            tile=draw(st.sampled_from((0, 8))),
            dift=draw(st.booleans()),
        )
    return VariantKnobs(
        target="fpga",
        unroll=draw(st.sampled_from((1, 2, 4, 8))),
        tile=draw(st.sampled_from((0, 8))),
        clock_hz=draw(st.sampled_from((150e6, 250e6, 350e6))),
        memory_strategy=draw(st.sampled_from(("auto", "none"))),
        matmul_order=draw(st.sampled_from(("ijk", "ikj"))),
        interleave=draw(st.sampled_from((1, 8))),
    )


class TestRandomKernelsAreSound:
    @settings(max_examples=examples(12), deadline=None)
    @given(
        source=kernel_sources(),
        knobs=st.lists(knob_points(), min_size=1, max_size=4),
    )
    def test_priced_cost_never_beats_bound(self, source, knobs):
        module = compile_kernel(source)
        assert_sound(module, "k", knobs)
