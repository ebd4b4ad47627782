"""A kernel's CDFG is kept per module version.

Every synthesis of one module starts from the CDFG built the first
time, until the module is edited in place: the version the edit bumps
makes the next synthesis build the CDFG afresh. Each design here must
equal the synthesis of a module freshly parsed from the edited text.
"""

import re

from repro.core.hls.bambu import synthesize
from repro.core.ir import parse_module

#: A store to ``%0[0]`` and a load from ``%0[1]``: the constant indices
#: prove them disjoint, so the load need not wait for the store.
TEXT = """\
builtin.module @edits {
  func.func @k (%0: memref<8xf32>, %1: memref<8xf32>) -> () {
    kernel.for {lower = 0, step = 1, upper = 8} {
      ^bb0(%2: index):
        %3 = kernel.load(%1, %2) : f32
        %4 = kernel.expf(%3) : f32
        %5 = kernel.const {value = 0} : index
        kernel.store(%4, %0, %5)
        %6 = kernel.const {value = 1} : index
        %7 = kernel.load(%0, %6) : f32
        %8 = kernel.addf(%7, %3) : f32
        kernel.store(%8, %1, %2)
        kernel.yield
    }
    func.return
  }
}
"""
UNROLLED = ("{lower = 0, step = 1, upper = 8}",
            "{lower = 0, step = 1, unroll = 2, upper = 8}")
#: The load now reads the element the store wrote.
ALIASED = ("%6 = kernel.const {value = 1}", "%6 = kernel.const {value = 0}")


def outcome(module):
    design = synthesize(module, "k")
    return (design.figures(), design.report(),
            re.sub(r"v\d+", "v", design.rtl()))


def test_an_in_place_edit_is_synthesized_afresh():
    module = parse_module(TEXT)
    function = module.find_function("k")
    loop = next(op for op in function.walk() if op.name == "kernel.for")
    const = [op for op in function.walk()
             if op.name == "kernel.const"][-1]
    designs = [outcome(module)]

    loop.set_attr("unroll", 2)
    designs.append(outcome(module))
    edited = TEXT.replace(*UNROLLED)
    assert designs[-1] == outcome(parse_module(edited))

    const.set_attr("value", 0)
    designs.append(outcome(module))
    assert designs[-1] == outcome(parse_module(edited.replace(*ALIASED)))

    assert designs[0] == outcome(parse_module(TEXT))
    latencies = [figures.latency_cycles for figures, _, _ in designs]
    assert len(set(latencies)) == 3, latencies


def test_an_unedited_module_keeps_its_cdfg():
    module = parse_module(TEXT)
    first = synthesize(module, "k")
    again = synthesize(module, "k")
    assert again.cdfg is not first.cdfg  # each synthesis directs a copy
    assert all(a.body is b.body for a, b in zip(
        again.cdfg.all_loops(), first.cdfg.all_loops()))
