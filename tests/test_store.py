"""The one content-addressed store, through both of its users, and
the record codec beside it.

Every store case runs per *kind*: ``cost`` (:class:`CostCache`, whose
codec hands out a fresh :class:`CostEstimate` per read) and
``analysis`` (:class:`AnalysisCache`, read back as the compile gate
reads its per-module entries): the disk
round trip, the version-mismatch, corrupt-file and ``clear`` cases,
hostile shards as counted misses, and one directory accounted kind by
kind whoever wrote it. Every hand-written line is sealed, so a damaged
one is rejected by the check its case names, not by a missing crc.
What only one user has (fresh copies per ``get``, key recipes, its
default directory, its process-wide instance) stays beside that user
in ``tests/dse/test_cache.py`` and
``tests/analysis/test_analysis_cache.py``.

The codec cases round-trip every record class the store and the run
journal hold, on the records the seeded end-to-end kernels, the
analysis fixtures and a recorded journal produce, and show that a
well-formed payload with one retyped field, or one moved under another
key of its kind with its crc left as written, is a counted miss whose
recomputation equals a cold run.
"""

import copy
import itertools
import json
import os
import re
from dataclasses import asdict, fields, is_dataclass
from functools import lru_cache, partial
from pathlib import Path

import pytest

from repro.core.analysis import _cached_entry, analyze_module_cached
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
from repro.core.dse.cache import CostCache, configure
from repro.core.dse.cost_model import prepare_variant_module, price_variant
from repro.core.dse.explorer import Explorer
from repro.core.dse.space import DesignSpace
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core import store as store_module
from repro.core.ir import ops, parse_module
from repro.core.store import (
    STORE_VERSION, ContentStore, decode, encode, seal, unseal,
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
from tests.dse.oracle import seeded_kernel

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
#: cache's estimates and the compile gate's per-module entries.
KINDS = {
    "cost": (CostCache, COST, partial(decode, CostEstimate), COST),
    "analysis": (AnalysisCache,
                 {"diagnostics": [], "facts": encode(AnalysisFacts())},
                 _cached_entry, (Diagnostics(), AnalysisFacts())),
}


def envelope(**changes):
    """A sealed current-version envelope for ``KEY``, then damaged."""
    entry = {"version": STORE_VERSION, "key": KEY, "kind": "cost",
             "payload": {}}
    entry.update(changes)
    return seal({name: value for name, value in entry.items()
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
    "not-json": "{not json",
    "parent-cost-layout": seal(
        {"version": "1", "key": KEY, "cost": GOOD_COST}),
    "parent-analysis-layout": seal(
        {"version": "1", "key": KEY, "payload": {"diagnostics": []}}),
    "unsealed-v3-envelope": json.dumps(
        {"version": "3", "key": KEY, "kind": "cost", "payload": {}},
        sort_keys=True),
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
        entry = unseal(shard.read_bytes())
        assert entry["version"] == STORE_VERSION
        shard.write_text(seal(dict(entry, version="0")) + "\n")
        assert store_class(directory=tmp_path).read(
            KEY, KINDS[kind][2]) is None

    def test_a_shard_that_cannot_be_read_is_a_miss(self, tmp_path, kind):
        store_class, value, decoder, _read = KINDS[kind]
        (tmp_path / KEY[:2] / f"{KEY}.json").mkdir(parents=True)
        store = store_class(directory=tmp_path)
        assert store.read(KEY, decoder) is None
        assert (store.stats.hits, store.stats.misses) == (0, 1)
        assert store.breakdown() == {}

    def test_each_shard_is_opened_at_most_once(self, tmp_path, kind,
                                               monkeypatch):
        """Over an empty directory, a shard's missing file is probed on
        its first key only: later reads and writes of its keys, and
        reads after the write, open nothing."""
        store_class, value, decoder, read = KINDS[kind]
        opened = []
        sealed_lines = store_module.sealed_lines
        monkeypatch.setattr(store_module, "sealed_lines", lambda path: (
            opened.append(Path(path).name), sealed_lines(path))[1])
        store = store_class(directory=tmp_path)
        other = "cd" + "0" * 62
        for key in (f"{KEY}.a", f"{KEY}.b", f"{other}.a", f"{KEY}.c"):
            assert store.read(key, decoder) is None
        store.put(f"{KEY}.a", value)
        store.put(f"{other}.b", value)
        assert store.read(f"{KEY}.a", decoder) == read
        assert store.read(f"{other}.c", decoder) is None
        assert sorted(opened) == [f"{KEY}.json", f"{other}.json"]

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
        shard.write_text(whole + seal(dict(unseal(whole), key=f"{KEY}.torn")))

        store = store_class(directory=tmp_path)
        assert store.read(f"{KEY}.torn", decoder) is None
        assert store.read(f"{KEY}.whole", decoder) == read
        store.put(f"{KEY}.next", value)
        reread = store_class(directory=tmp_path)
        assert reread.read(f"{KEY}.whole", decoder) == reread.read(
            f"{KEY}.next", decoder) == read
        assert reread.breakdown()[kind]["entries"] == 2


def _shard_bytes(directory):
    return {path.name: path.read_bytes()
            for path in sorted(directory.glob("*/*.json"))}


class TestBatches:
    @pytest.mark.parametrize("damaged", [False, True],
                             ids=["sound", "damaged"])
    def test_a_batch_writes_what_its_entries_write_one_by_one(
            self, tmp_path, monkeypatch, damaged):
        """Same bytes (line text and order, a key written twice, a
        damaged shard rewritten) in one append per shard."""
        other = "cd" + "0" * 62
        entries = [(f"{KEY}.{name}", "cost", {"point": index})
                   for index, name in enumerate("aba")]
        entries.append((f"{other}.c", "perf", {"point": 3}))
        written = {}
        for batched in (False, True):
            directory = tmp_path / str(batched)
            shard = directory / KEY[:2] / f"{KEY}.json"
            shard.parent.mkdir(parents=True)
            shard.write_text(envelope(key=f"{KEY}.old", payload={})
                             + "\n" + "[]\n" * damaged)
            store = ContentStore(directory)
            appends = []
            append = os.write
            with monkeypatch.context() as patch:
                patch.setattr(os, "write", lambda descriptor, data: (
                    appends.append(data), append(descriptor, data))[1])
                for batch in [entries] if batched else [[e] for e in entries]:
                    store.write(batch)
            written[batched] = _shard_bytes(directory), len(appends)
        assert written[True][0] == written[False][0]
        assert (written[True][1], written[False][1]) == (2, 4)
        lines = written[True][0][f"{KEY}.json"].splitlines()
        assert [json.loads(line)["key"].partition(".")[2]
                for line in lines] == ["old", "a", "b", "a"]

    def test_a_torn_batch_reads_its_sound_prefix(self, tmp_path):
        keys = [f"{KEY}.{index}" for index in range(3)]
        CostCache(directory=tmp_path).put_many(
            [(key, COST) for key in keys])
        shard = tmp_path / KEY[:2] / f"{KEY}.json"
        data = shard.read_bytes()
        shard.write_bytes(data[:data.rindex(b"\n", 0, -1) + 20])
        store = CostCache(directory=tmp_path)
        assert [store.get(key) for key in keys] == [COST, COST, None]
        assert (store.stats.hits, store.stats.misses) == (2, 1)

    def test_a_short_write_is_repaired_by_the_next(
            self, tmp_path, monkeypatch):
        """A full disk tears the line it cuts short; the shard's next
        write starts it over, so no later line runs into the tear."""
        store = CostCache(directory=tmp_path)
        append = os.write
        with monkeypatch.context() as patch:
            patch.setattr(os, "write", lambda descriptor, data: append(
                descriptor, data[:len(data) // 2]))
            store.put(f"{KEY}.a", COST)
        store.put(f"{KEY}.b", COST)
        reread = CostCache(directory=tmp_path)
        assert reread.get(f"{KEY}.a") == reread.get(f"{KEY}.b") == COST


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

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    def test_encode_is_the_field_dict_without_a_deep_copy(
            self, cls, monkeypatch):
        """The standard library's field dict — tuples kept as tuples —
        built without its deep copy of every value."""
        records = produced_records()[cls]
        expected = [asdict(record) for record in records]
        monkeypatch.setattr(copy, "deepcopy", None)
        assert [encode(record) for record in records] == expected

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


def resealed(change):
    """The shard's lines with ``change`` made to every payload, each
    line sealed afresh (so the payload decoder sees the change)."""
    def lines(texts):
        entries = [unseal(text) for text in texts]
        for entry in entries:
            change(entry["payload"])
        return [seal(entry) for entry in entries]
    return lines


#: A shard line split around its payload, in any envelope layout.
PAYLOAD = re.compile(r'(.*"payload": ?)(.*?)(, ?"version".*)')


def swapped(texts):
    """The shard's lines with the first two different payloads traded,
    each line keeping the crc it was written with: both payloads are
    well formed for their kind, so only a crc over the key tells."""
    parts = [PAYLOAD.fullmatch(text).groups() for text in texts]
    first, second = next(pair for pair in itertools.combinations(parts, 2)
                         if pair[0][1] != pair[1][1])
    trade = {first: second[1], second: first[1]}
    return [head + trade.get((head, payload, tail), payload) + tail
            for head, payload, tail in parts]


#: case -> (kind, the change made to the shard's lines)
CONFUSED = {
    "cost-feasible-a-string": (
        "cost", resealed(lambda payload: payload.update(feasible="no"))),
    "cost-payloads-swapped": ("cost", swapped),
    "analysis-trips-a-string": (
        "analysis", resealed(lambda payload: _function(payload)[
            "accesses"][0].update(enclosing_trips="64"))),
    "analysis-inputs-a-string": (
        "analysis", resealed(lambda payload: _function(payload)
                             .update(inputs="abc"))),
    "analysis-without-facts": (
        "analysis", resealed(lambda payload: payload.pop("facts"))),
    "perf-trip-a-string": (
        "perf", resealed(lambda payload: payload["nests"][0]
                         .update(trip="16"))),
}


def _cost_run(directory):
    cache = configure(cache_dir=directory)
    return Explorer(compile_kernel(GEMM_SRC), "gemm", space=PRICED
                    ).run("exhaustive").front_json(), cache.stats


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
        lines = shard.read_text().splitlines()
        changed = change(lines)
        shard.write_text("".join(line + "\n" for line in changed))
        moved = sum(map(str.__ne__, lines, changed))

        monkeypatch.setattr(ops, "_value_counter", itertools.count())
        again, stats = RUNS[kind](tmp_path)
        assert (stats.hits, stats.misses) == (len(lines) - moved, moved)
        if kind == "analysis":
            assert again[2] is False
            again, cold = again[:2], cold[:2]
        assert again == cold
