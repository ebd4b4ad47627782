"""The design space's enumeration against the cross product it walks.

``DesignSpace.points()`` takes each target once and walks only the
knobs that target reads. The oracle is the enumeration it replaced:
every tuple of the full 10-knob cross product, built into its target's
``VariantKnobs`` and kept where it first occurs.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dse.space import DesignSpace
from repro.core.variants import VariantKnobs
from tests.conftest import examples

#: Candidate values per knob; a drawn space takes 1-3 with repeats.
#: ``250e6`` and ``250_000_000`` are one value, as two knobs are one
#: point when they compare equal.
POOLS = {
    "threads": (1, 2, 8),
    "unrolls": (1, 4, 8),
    "tiles": (0, 8),
    "memory_strategies": ("auto", "cyclic", "none"),
    "layouts": ("row_major", "col_major"),
    "clocks_hz": (150e6, 250e6, 250_000_000),
    "dift_options": (False, True),
    "matmul_orders": ("ijk", "ikj"),
    "interleaves": (1, 8),
}

SPACES = st.builds(
    DesignSpace,
    targets=st.lists(st.sampled_from(("cpu", "fpga")),
                     min_size=1, max_size=4).map(tuple),
    **{knob: st.lists(st.sampled_from(pool), min_size=1,
                      max_size=3).map(tuple)
       for knob, pool in POOLS.items()},
)


def cross_product_points(space):
    """Each distinct point of the raw cross product, in first-seen order."""
    seen = {}
    for (target, threads, unroll, tile, strategy, layout, clock, dift,
         order, interleave) in itertools.product(
            space.targets, space.threads, space.unrolls, space.tiles,
            space.memory_strategies, space.layouts, space.clocks_hz,
            space.dift_options, space.matmul_orders, space.interleaves):
        if target == "cpu":
            knobs = VariantKnobs(
                target="cpu", threads=threads, tile=tile, layout=layout,
                dift=dift, matmul_order=order,
            )
        else:
            knobs = VariantKnobs(
                target="fpga", unroll=unroll, tile=tile,
                memory_strategy=strategy, layout=layout, clock_hz=clock,
                dift=dift, matmul_order=order, interleave=interleave,
            )
        seen.setdefault(knobs, None)
    return list(seen)


@settings(max_examples=examples(200), deadline=None)
@given(SPACES)
def test_points_are_the_cross_product_deduplicated(space):
    expected = cross_product_points(space)
    assert list(space.points()) == expected
    assert space.size() == len(expected)
