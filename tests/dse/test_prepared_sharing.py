"""Prepared modules are read-only and shared by every target.

A prepared module depends only on the passes that transform it (tile,
layout, DIFT, matmul order): the loop directives are HLS options, so a
CPU point and every FPGA point of one pass pipeline get the same
module, pricing never writes to it, and packaging a CPU variant finds
the module pricing prepared.
"""

import pytest

from repro.core.compiler import EverestCompiler
from repro.core.dse.cache import prepared_cache
from repro.obs.driver import pipeline_from_sources
from tests.dse.oracle import ATTEMPTS, CASES, EXPLORED, SPACE, seeded_source


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
