"""The one content-addressed store, through both of its users, and
the record codec beside it.

Every store case runs per *kind*: ``cost`` (:class:`CostCache`, whose
codec hands out a fresh :class:`CostEstimate` per read) and
``analysis`` (:class:`AnalysisCache`, read back as the lint driver
reads its per-file entries): the disk
round trip, the version-mismatch, corrupt-file and ``clear`` cases,
hostile shards as counted misses, and one directory accounted kind by
kind whoever wrote it. What only one user has (fresh copies per
``get``, key recipes, its default directory, its process-wide
instance) stays beside that user in ``tests/dse/test_cache.py`` and
``tests/analysis/test_analysis_cache.py``.

The codec cases round-trip every record class the store and the run
journal hold, on the records the seeded end-to-end kernels, the
analysis fixtures and a recorded journal produce, and show that a
well-formed payload with one retyped field is a counted miss whose
recomputation equals a cold run.
"""

import itertools
import json
from dataclasses import fields, is_dataclass
from functools import lru_cache, partial
from pathlib import Path

import pytest

from benchmarks.e2e.inputs import kernel_input
from repro.core.analysis import analyze_module_cached
from repro.core.analysis.absint import (
    AccessFacts,
    AnalysisFacts,
    DeadFacts,
    DimRange,
    FunctionFacts,
    LoopFacts,
    PartitionDemand,
    compute_facts,
)
from repro.core.analysis.cache import AnalysisCache, configure_analysis_cache
from repro.core.analysis.perf import (
    BufferInfo,
    BufferTraffic,
    NestBounds,
    StaticBounds,
    clear_bounds_memo,
    compute_kernel_bounds,
    kernel_bounds,
)
from repro.core.analysis.specs import _lint_entry
from repro.core.dse.cache import CostCache, configure
from repro.core.dse.cost_model import (
    evaluate_variant,
    prepare_variant_module,
    price_variant,
)
from repro.core.dse.space import DesignSpace
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.frontend import import_model
from repro.core.ir import ops, parse_module
from repro.core.store import (
    STORE_VERSION, ContentStore, decode, encode,
)
from repro.core.variants import CostEstimate, VariantKnobs
from repro.diagnostics import Diagnostics
from repro.platform.fpga import Bitstream
from repro.platform.resources import FPGAResources
from repro.workflow.journal import (
    JOURNAL_FILE,
    list_snapshots,
    read_records,
    read_snapshot,
    replay_journal,
)
from repro.workflow.replay import ReplayState, replay_records

from tests.conftest import GEMM_SRC

KEY = "ab" + "0" * 62

COST = CostEstimate(
    latency_s=1.5, energy_j=2.0, data_bytes=64,
    resources=FPGAResources(luts=10, ffs=20, bram_kb=4, dsps=1),
    bitstream=Bitstream(
        name="k@250MHz", clock_hz=250e6, dynamic_watts=0.5,
        footprint=FPGAResources(luts=10, ffs=20, bram_kb=4, dsps=1),
    ))

#: kind -> (store class, a value ``put`` accepts, the decoder its user
#: reads entries with, what that read makes of the value): the cost
#: cache's estimates and the lint driver's per-file entries.
KINDS = {
    "cost": (CostCache, COST, partial(decode, CostEstimate), COST),
    "analysis": (AnalysisCache, {"diagnostics": [], "targets": 1},
                 _lint_entry, (Diagnostics(), 1)),
}


def envelope(**changes):
    """A current-version envelope for ``KEY``, then damaged."""
    entry = {"version": STORE_VERSION, "key": KEY, "kind": "cost",
             "payload": {}}
    entry.update(changes)
    return json.dumps({name: value for name, value in entry.items()
                       if value is not None})


GOOD_COST = {"latency_s": 1.0, "energy_j": 2.0, "feasible": True}
GOOD_IMAGE = {"name": "k@250MHz", "footprint": {"luts": 10},
              "clock_hz": 250e6, "dynamic_watts": 0.5,
              "size_bytes": 1024, "partial": True}

#: Valid JSON of the wrong shape, for every kind.
DAMAGED = {
    "list": "[]",
    "string": '"1"',
    "number": "1",
    "null": "null",
    "parent-cost-layout": json.dumps(
        {"version": "1", "key": KEY, "cost": GOOD_COST}),
    "parent-analysis-layout": json.dumps(
        {"version": "1", "key": KEY, "payload": {"diagnostics": []}}),
    "no-payload": envelope(payload=None),
    "no-kind": envelope(kind=None),
    "kind-not-a-string": envelope(kind=7),
    "another-key": envelope(key="cd" + "0" * 62),
    "payload-list": envelope(payload=[]),
    "payload-string": envelope(payload="x"),
}

#: Well-formed envelopes whose payload only the cost codec rejects.
DAMAGED_COST = {
    "cost-empty": envelope(payload={}),
    "cost-latency-not-a-number": envelope(
        payload=dict(GOOD_COST, latency_s="x")),
    "cost-latency-null": envelope(
        payload=dict(GOOD_COST, latency_s=None)),
    "cost-resources-a-list": envelope(
        payload=dict(GOOD_COST, resources=[1])),
    "cost-luts-infinite": envelope(
        payload=dict(GOOD_COST, resources={"luts": float("inf")})),
    "cost-luts-negative": envelope(
        payload=dict(GOOD_COST, resources={"luts": -1})),
}
DAMAGED_COST.update({
    f"cost-bitstream-{name}": envelope(
        payload=dict(GOOD_COST, bitstream=image))
    for name, image in {
        "a-list": [GOOD_IMAGE],
        "a-string": "k@250MHz",
        "no-footprint": {field: value
                         for field, value in GOOD_IMAGE.items()
                         if field != "footprint"},
        "footprint-a-list": dict(GOOD_IMAGE, footprint=[10]),
        "footprint-negative": dict(GOOD_IMAGE,
                                   footprint={"luts": -1}),
        "clock-not-a-number": dict(GOOD_IMAGE, clock_hz="fast"),
        "clock-zero": dict(GOOD_IMAGE, clock_hz=0.0),
        "clock-negative": dict(GOOD_IMAGE, clock_hz=-250e6),
        "clock-nan": dict(GOOD_IMAGE, clock_hz=float("nan")),
        "watts-negative": dict(GOOD_IMAGE, dynamic_watts=-0.5),
        "size-zero": dict(GOOD_IMAGE, size_bytes=0),
    }.items()
})

CASES = [(kind, name, body)
         for kind in KINDS for name, body in DAMAGED.items()]
CASES += [("cost", name, body) for name, body in DAMAGED_COST.items()]


@pytest.mark.parametrize("kind", KINDS)
class TestDisk:
    def written(self, tmp_path, kind):
        """(store class, shard file) after one ``put`` of KEY."""
        store_class, value, _decoder, _read = KINDS[kind]
        store_class(directory=tmp_path).put(KEY, value)
        # entries are sharded by key prefix
        shard = tmp_path / KEY[:2] / f"{KEY}.json"
        assert shard.exists()
        return store_class, shard

    def test_a_second_instance_reads_what_the_first_wrote(
            self, tmp_path, kind):
        """A second process (modeled by a fresh instance) reads what
        the first wrote — the cross-invocation warm start."""
        store_class, _shard = self.written(tmp_path, kind)
        reader = store_class(directory=tmp_path)
        assert reader.read(KEY, KINDS[kind][2]) == KINDS[kind][3]
        assert (reader.stats.hits, reader.stats.misses) == (1, 0)

    def test_another_store_version_is_a_miss(self, tmp_path, kind):
        store_class, shard = self.written(tmp_path, kind)
        current = f'"version": "{STORE_VERSION}"'
        assert current in shard.read_text()
        shard.write_text(
            shard.read_text().replace(current, '"version": "0"'))
        assert store_class(directory=tmp_path).read(
            KEY, KINDS[kind][2]) is None

    def test_a_corrupt_shard_is_a_miss(self, tmp_path, kind):
        store_class, shard = self.written(tmp_path, kind)
        shard.write_text("{not json")
        assert store_class(directory=tmp_path).read(
            KEY, KINDS[kind][2]) is None

    def test_clear_drops_memory_and_disk(self, tmp_path, kind):
        store_class, value, decoder, _read = KINDS[kind]
        store = store_class(directory=tmp_path)
        store.put("aa" * 32, value)
        store.put("bb" * 32, value)
        assert store.entry_count() == 2
        assert store.disk_bytes() > 0
        assert store.clear() == 2
        assert store.entry_count() == 0
        assert store.read("aa" * 32, decoder) is None


class TestDamagedShards:
    @pytest.mark.parametrize(
        "kind,body", [pytest.param(kind, body, id=f"{kind}-{name}")
                      for kind, name, body in CASES])
    def test_is_a_counted_miss_and_is_overwritten(
            self, tmp_path, kind, body):
        store_class, value, decoder, read = KINDS[kind]
        shard = tmp_path / KEY[:2] / f"{KEY}.json"
        shard.parent.mkdir()
        shard.write_text(body + "\n")

        store = store_class(directory=tmp_path)
        assert store.read(KEY, decoder) is None
        assert (store.stats.hits, store.stats.misses) == (0, 1)

        store.put(KEY, value)
        reread = store_class(directory=tmp_path).read(KEY, decoder)
        assert reread == read
        assert set(store.breakdown()) == {kind}

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_torn_append_costs_its_own_entry_only(self, tmp_path, kind):
        """A line without its newline is a write that never finished:
        a miss, and the next entry of the shard does not run into it."""
        store_class, value, decoder, read = KINDS[kind]
        store_class(directory=tmp_path).put(f"{KEY}.whole", value)
        shard = tmp_path / KEY[:2] / f"{KEY}.json"
        whole = shard.read_text()
        shard.write_text(whole + whole.replace("whole", "torn").rstrip())

        store = store_class(directory=tmp_path)
        assert store.read(f"{KEY}.torn", decoder) is None
        assert store.read(f"{KEY}.whole", decoder) == read
        store.put(f"{KEY}.next", value)
        reread = store_class(directory=tmp_path)
        assert reread.read(f"{KEY}.whole", decoder) == reread.read(
            f"{KEY}.next", decoder) == read
        assert reread.breakdown()[kind]["entries"] == 2


class TestKinds:
    def test_one_directory_is_accounted_kind_by_kind(self, tmp_path):
        """Both users pointed at one directory (``--cache-dir X`` for
        ``explore`` and then ``perf``): each entry is reported once,
        under the kind its writer gave it."""
        cost = CostCache(directory=tmp_path)
        analysis = AnalysisCache(directory=tmp_path)
        for index in range(4):
            cost.put(f"c{index}" + "0" * 62, KINDS["cost"][1])
        analysis.put("a0" + "0" * 62, {"diagnostics": []})
        analysis.put("a1" + "0" * 62, {"kind": "perf", "kernel": "k"})
        (tmp_path / "zz").mkdir()
        (tmp_path / "zz" / ("zz" + "0" * 62 + ".json")).write_text("{")

        store = ContentStore(tmp_path)
        rows = store.breakdown()
        assert {kind: row["entries"] for kind, row in rows.items()} == {
            "cost": 4, "analysis": 1, "perf": 1, "unreadable": 1}
        assert sum(row["entries"] for row in rows.values()) == \
            store.entry_count() == 7
        assert sum(row["disk_bytes"] for row in rows.values()) == \
            store.disk_bytes()
        assert store.clear() == 7
        assert store.breakdown() == {}


# ---------------------------------------------------------------------
# The record codec.

ROOT = Path(__file__).resolve().parent
FIXTURES = ROOT / "analysis" / "fixtures"
JOURNAL_RUN = ROOT / "workflow" / "fixtures" / "journal_pr18"

#: A load and a store at an index argument: both dimensions unbounded,
#: so the facts carry ``-inf`` / ``+inf`` bounds.
UNBOUNDED_IR = """builtin.module @unbounded {
  func.func @gather (%0: memref<8xf32>, %1: index) -> () {
    %2 = kernel.load(%0, %1) : f32
    kernel.store(%2, %0, %1)
    func.return
  }
}
"""

#: CPU and FPGA points, some of them missing timing at 350 MHz.
PRICED = DesignSpace(threads=(1,), unrolls=(1, 8),
                     clocks_hz=(250e6, 350e6))

RECORDS = (LoopFacts, DimRange, AccessFacts, DeadFacts, PartitionDemand,
           FunctionFacts, AnalysisFacts, NestBounds, BufferTraffic,
           BufferInfo, StaticBounds, FPGAResources, Bitstream,
           CostEstimate, ReplayState)


def seeded_kernel(seed, index):
    """(module, kernel name) of one seeded end-to-end application."""
    kernel = kernel_input(seed, index)
    source = kernel.source or import_model(kernel.model).dsl_source
    return compile_kernel(source), kernel.name


def _walk(value, found):
    """Every dataclass record reachable from ``value``, by class."""
    if is_dataclass(value):
        found.setdefault(type(value), []).append(value)
        for item in fields(value):
            _walk(getattr(value, item.name), found)
    elif isinstance(value, (list, tuple)):
        for element in value:
            _walk(element, found)
    elif isinstance(value, dict):
        for element in value.values():
            _walk(element, found)


@lru_cache(maxsize=None)
def produced_records():
    """``{class: records}`` of the 24 seeded end-to-end kernels (seeds
    1 and 11; tensor and kernel form, bounds, priced points), the
    analysis fixtures and the recorded journal."""
    found = {}
    for seed in (1, 11):
        for index in range(12):
            module, name = seeded_kernel(seed, index)
            _walk([compute_facts(module), compute_kernel_bounds(module, name),
                   compute_facts(prepare_variant_module(
                       module, name, VariantKnobs(target="fpga")))]
                  + [price_variant(module, name, knobs)
                     for knobs in PRICED.points()], found)
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.ir"))]
    for text in texts + [UNBOUNDED_IR]:
        module = parse_module(text)
        _walk([compute_facts(module)]
              + [compute_kernel_bounds(module, function.name)
                 for function in module.functions()], found)
    records, _torn = read_records(JOURNAL_RUN / JOURNAL_FILE)
    _walk([replay_journal(JOURNAL_RUN)[0]]
          + [replay_records(records[:end]) for end in (1, 10, 40)]
          + [read_snapshot(path)[1]
             for _seq, path in list_snapshots(JOURNAL_RUN)], found)
    return found


class TestCodec:
    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    def test_every_record_round_trips_through_json(self, cls):
        records = produced_records().get(cls, [])
        assert records
        names = {item.name for item in fields(cls)}
        for record in records:
            payload = json.loads(json.dumps(encode(record)))
            assert names <= set(payload)
            assert decode(cls, payload) == record

    def test_the_records_cover_the_awkward_values(self):
        """Unbounded index ranges, infeasible points and points with a
        bitstream all appear among the round-tripped records."""
        found = produced_records()
        assert any(dim.lo == -float("inf") and dim.hi == float("inf")
                   for dim in found[DimRange])
        costs = found[CostEstimate]
        assert any(not cost.feasible for cost in costs)
        assert any(cost.bitstream is not None for cost in costs)

    def test_a_missing_field_takes_its_default_or_is_rejected(self):
        state = decode(ReplayState, {"events": 3, "retired": 1})
        assert state == ReplayState(events=3)
        with pytest.raises(TypeError):
            decode(CostEstimate, {"latency_s": 1.0})

    @pytest.mark.parametrize("cls,payload", [
        (CostEstimate, {"latency_s": 1.0, "energy_j": 2.0,
                        "feasible": "no"}),
        (CostEstimate, {"latency_s": True, "energy_j": 2.0}),
        (FPGAResources, {"luts": 1.0}),
        (AccessFacts, {"anchor": "a", "kind": "load", "buffer": "b",
                       "enclosing_trips": "64"}),
        (AccessFacts, {"anchor": "a", "kind": "load", "buffer": "b",
                       "flat": [1, 2, 3]}),
        (FunctionFacts, {"name": "f", "inputs": "abc"}),
        (NestBounds, {"anchor": "n", "depth": 1, "trip": 2,
                      "outer_iters": 1, "ops": {"alu": "1"}}),
        (ReplayState, {"header": []}),
        (ReplayState, []),
    ], ids=["feasible-a-string", "latency-a-bool", "luts-a-float",
            "trips-a-string", "flat-too-long", "inputs-a-string",
            "op-count-a-string", "header-a-list", "not-an-object"])
    def test_a_value_of_another_type_is_rejected(self, cls, payload):
        with pytest.raises(TypeError):
            decode(cls, payload)


def _function(payload):
    """The first function's facts in an analysis entry."""
    return next(iter(payload["facts"]["functions"].values()))


#: case -> (kind, the one change made to the stored payload)
CONFUSED = {
    "cost-feasible-a-string": (
        "cost", lambda payload: payload.update(feasible="no")),
    "analysis-trips-a-string": (
        "analysis", lambda payload: _function(payload)["accesses"][0]
        .update(enclosing_trips="64")),
    "analysis-inputs-a-string": (
        "analysis", lambda payload: _function(payload)
        .update(inputs="abc")),
    "analysis-without-facts": (
        "analysis", lambda payload: payload.pop("facts")),
    "perf-trip-a-string": (
        "perf", lambda payload: payload["nests"][0].update(trip="16")),
}


def _cost_run(directory):
    cache = configure(cache_dir=directory)
    return evaluate_variant(compile_kernel(GEMM_SRC), "gemm",
                            VariantKnobs(target="fpga")), cache.stats


def _analysis_run(directory):
    cache = AnalysisCache(directory)
    lowered = prepare_variant_module(compile_kernel(GEMM_SRC), "gemm",
                                     VariantKnobs(target="fpga"))
    return analyze_module_cached(lowered, cache=cache), cache.stats


def _perf_run(directory):
    cache = configure_analysis_cache(directory)
    clear_bounds_memo()
    return kernel_bounds(compile_kernel(GEMM_SRC), "gemm"), cache.stats


#: kind -> one run over a cache directory: (result, that cache's stats)
RUNS = {"cost": _cost_run, "analysis": _analysis_run, "perf": _perf_run}


class TestTypeConfusedPayloads:
    @pytest.mark.parametrize("case", CONFUSED)
    def test_is_a_counted_miss_and_recomputes_the_cold_result(
            self, tmp_path, monkeypatch, case):
        kind, change = CONFUSED[case]
        # value names come from a process-global counter: both runs
        # start it afresh, so a recomputation names what the cold run did
        monkeypatch.setattr(ops, "_value_counter", itertools.count())
        cold, _stats = RUNS[kind](tmp_path)
        (shard,) = tmp_path.glob("*/*.json")
        lines = []
        for line in shard.read_text().splitlines():
            entry = json.loads(line)
            change(entry["payload"])
            lines.append(json.dumps(entry, sort_keys=True) + "\n")
        shard.write_text("".join(lines))

        monkeypatch.setattr(ops, "_value_counter", itertools.count())
        again, stats = RUNS[kind](tmp_path)
        assert (stats.hits, stats.misses) == (0, 1)
        if kind == "analysis":
            assert again[2] is False
            again, cold = again[:2], cold[:2]
        assert again == cold
