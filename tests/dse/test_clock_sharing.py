"""An FPGA design is synthesized once for every clock it is priced at,
and for every pass pipeline that prepares the same content, over a
CDFG built once per prepared content.

No HLS step reads the clock, so the points of a design space that
differ only in clock share one synthesis: pricing keeps what it
synthesized by the prepared module's content digest, kernel and HLS
options without the clock, so pipelines that prepare equal modules
share it too. No option changes a kernel's structure, so every
synthesis from one prepared content starts from one CDFG, and none
builds an FSMD. These tests hold every priced FPGA point to a design
synthesized afresh, from a fresh clone with nothing cached, at that
point's clock (:func:`tests.dse.oracle.fresh_estimate`), in either
pricing order, cold and over a warm memo, and count the syntheses,
CDFGs and FSMDs pricing and exploration build against the distinct
contents the oracle prepares itself (``priced`` in
``tests/dse/conftest.py`` records each case once).
"""

import sys

import pytest

from repro.core.dse.explorer import Explorer
from tests.dse.oracle import (
    ATTEMPTS, CASES, EXPLORED, ORDERS, SPACE, seeded_kernel)


def fpga_designs(case):
    """Clock-free FPGA designs the case's space explores."""
    return len(CASES[case].designs) - 1  # less the rejected strategy


@pytest.mark.parametrize("attempt", ATTEMPTS)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("case", EXPLORED)
def test_every_point_prices_as_a_fresh_design(priced, case, order,
                                              attempt):
    record = priced(case)
    assert record.priced[order, attempt] == record.fresh


@pytest.mark.parametrize("case", EXPLORED)
def test_the_space_reaches_every_verdict(priced, case):
    """Between them the kernels cover feasible points, points that
    miss timing at 350 MHz only, and a synthesis failure."""
    clocks = CASES[case].clocks
    reasons = {clock: set() for clock in clocks}
    for knobs, payload in priced(case).fresh.items():
        reasons[knobs.clock_hz].add(
            payload["infeasible_reason"].split(":")[0])
    assert "" in reasons[clocks[0]]
    assert "timing" not in reasons[clocks[0]]
    for clock in clocks:
        assert "unknown memory strategy 'banked'" in reasons[clock]
    if case == "e2e-2":
        assert "timing" in reasons[clocks[1]]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("case", EXPLORED)
def test_one_synthesis_per_clock_free_design(priced, case, order):
    """One synthesis per distinct prepared content and clock-free
    option set. The clock-last order starts from ``clear_caches()`` of
    the clock-first's warm memo, which empties it. A rejected design
    is kept in the memo too."""
    record = priced(case)
    assert record.builds[order, "cold"]["synthesize"] == \
        record.distinct["synthesize"]
    assert record.builds[order, "warm memo"]["synthesize"] == 0


@pytest.mark.parametrize("case", EXPLORED)
def test_an_exploration_over_the_memo_prices_as_fresh_designs(priced,
                                                               case):
    """The explorer prices through the same memo: with the cost cache
    empty it synthesizes, builds and prepares nothing again."""
    record = priced(case)
    explored = record.explored
    assert set(explored["builds"].values()) == {0}
    assert len(explored["priced"]) == \
        len(CASES[case].clocks) * fpga_designs(case)
    assert explored["priced"] == {
        knobs: record.fresh[knobs] for knobs in explored["priced"]}


def test_the_e2e_space_has_24_designs_at_two_clocks():
    fpga = [knobs for knobs in SPACE.points() if knobs.target == "fpga"]
    designs = {(knobs.unroll, knobs.tile, knobs.memory_strategy)
               for knobs in fpga}
    assert len(fpga) == 48
    assert len(designs) == fpga_designs("e2e-1") == 24


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("case", EXPLORED)
def test_one_cdfg_per_prepared_kernel(priced, case, order):
    record = priced(case)
    for attempt in ATTEMPTS:
        builds = record.builds[order, attempt]
        assert (builds["cdfg"], builds["fsmd"]) == (
            (record.distinct["cdfg"], 0) if attempt == "cold" else (0, 0))
    # A design built outside pricing starts from the same CDFG and
    # builds its FSMD when its RTL is asked for.
    built = record.design_builds
    assert (built["design"]["cdfg"], built["design"]["fsmd"]) == (0, 0)
    assert (built["rtl"]["cdfg"], built["rtl"]["fsmd"]) == (0, 1)
    assert built["rtl repeatable"]


def test_process_pool_finds_the_same_front(priced):
    serial = priced("e2e-1").explored
    module, kernel = seeded_kernel(1, 1)
    pooled = Explorer(module, kernel, space=SPACE, workers=2,
                      workers_mode="process").run("exhaustive")
    assert pooled.front_json() == serial["front"]
    assert pooled.to_json() == serial["json"]


def test_pricing_threads_share_the_memos(priced):
    """More pricing threads than cores, switching every microsecond,
    over cold memos a kernel's two tiles share: the serial result."""
    serial = priced("e2e-0").explored
    module, kernel = seeded_kernel(1, 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = Explorer(module, kernel, space=SPACE, workers=4,
                            workers_mode="thread").run("exhaustive")
    finally:
        sys.setswitchinterval(interval)
    assert threaded.to_json() == serial["json"]
