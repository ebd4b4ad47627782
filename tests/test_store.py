"""The one content-addressed store, through both of its users.

Every case runs per *kind*: ``cost`` (:class:`CostCache`, whose codec
hands out a fresh :class:`CostEstimate` per read) and ``analysis``
(:class:`AnalysisCache`, plain JSON objects): the disk round trip,
the version-mismatch, corrupt-file and ``clear`` cases, hostile shards
as counted misses, and one directory accounted kind by kind whoever
wrote it. What only one user has (fresh copies per ``get``, key
recipes, its default directory, its process-wide instance) stays
beside that user in ``tests/dse/test_cache.py`` and
``tests/analysis/test_analysis_cache.py``.
"""

import json

import pytest

from repro.core.analysis.cache import AnalysisCache
from repro.core.dse.cache import CostCache
from repro.core.store import STORE_VERSION, ContentStore
from repro.core.variants import CostEstimate
from repro.platform.fpga import Bitstream
from repro.platform.resources import FPGAResources

KEY = "ab" + "0" * 62

#: kind -> (store class, a value ``put`` accepts)
KINDS = {
    "cost": (CostCache, CostEstimate(
        latency_s=1.5, energy_j=2.0, data_bytes=64,
        resources=FPGAResources(luts=10, ffs=20, bram_kb=4, dsps=1),
        bitstream=Bitstream(
            name="k@250MHz", clock_hz=250e6, dynamic_watts=0.5,
            footprint=FPGAResources(luts=10, ffs=20, bram_kb=4, dsps=1),
        ))),
    "analysis": (AnalysisCache, {"diagnostics": [], "targets": 1}),
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
        """(store class, value, shard file) after one ``put`` of KEY."""
        store_class, value = KINDS[kind]
        store_class(directory=tmp_path).put(KEY, value)
        # entries are sharded by key prefix
        shard = tmp_path / KEY[:2] / f"{KEY}.json"
        assert shard.exists()
        return store_class, value, shard

    def test_a_second_instance_reads_what_the_first_wrote(
            self, tmp_path, kind):
        """A second process (modeled by a fresh instance) reads what
        the first wrote — the cross-invocation warm start."""
        store_class, value, _shard = self.written(tmp_path, kind)
        reader = store_class(directory=tmp_path)
        assert reader.get(KEY) == value
        assert (reader.stats.hits, reader.stats.misses) == (1, 0)

    def test_another_store_version_is_a_miss(self, tmp_path, kind):
        store_class, _value, shard = self.written(tmp_path, kind)
        current = f'"version": "{STORE_VERSION}"'
        assert current in shard.read_text()
        shard.write_text(
            shard.read_text().replace(current, '"version": "0"'))
        assert store_class(directory=tmp_path).get(KEY) is None

    def test_a_corrupt_shard_is_a_miss(self, tmp_path, kind):
        store_class, _value, shard = self.written(tmp_path, kind)
        shard.write_text("{not json")
        assert store_class(directory=tmp_path).get(KEY) is None

    def test_clear_drops_memory_and_disk(self, tmp_path, kind):
        store_class, value = KINDS[kind]
        store = store_class(directory=tmp_path)
        store.put("aa" * 32, value)
        store.put("bb" * 32, value)
        assert store.entry_count() == 2
        assert store.disk_bytes() > 0
        assert store.clear() == 2
        assert store.entry_count() == 0
        assert store.get("aa" * 32) is None


class TestDamagedShards:
    @pytest.mark.parametrize(
        "kind,body", [pytest.param(kind, body, id=f"{kind}-{name}")
                      for kind, name, body in CASES])
    def test_is_a_counted_miss_and_is_overwritten(
            self, tmp_path, kind, body):
        store_class, value = KINDS[kind]
        shard = tmp_path / KEY[:2] / f"{KEY}.json"
        shard.parent.mkdir()
        shard.write_text(body + "\n")

        store = store_class(directory=tmp_path)
        assert store.get(KEY) is None
        assert (store.stats.hits, store.stats.misses) == (0, 1)

        store.put(KEY, value)
        reread = store_class(directory=tmp_path).get(KEY)
        assert reread == value
        assert set(store.breakdown()) == {kind}

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_torn_append_costs_its_own_entry_only(self, tmp_path, kind):
        """A line without its newline is a write that never finished:
        a miss, and the next entry of the shard does not run into it."""
        store_class, value = KINDS[kind]
        store_class(directory=tmp_path).put(f"{KEY}.whole", value)
        shard = tmp_path / KEY[:2] / f"{KEY}.json"
        whole = shard.read_text()
        shard.write_text(whole + whole.replace("whole", "torn").rstrip())

        store = store_class(directory=tmp_path)
        assert store.get(f"{KEY}.torn") is None
        assert store.get(f"{KEY}.whole") == value
        store.put(f"{KEY}.next", value)
        reread = store_class(directory=tmp_path)
        assert reread.get(f"{KEY}.whole") == reread.get(f"{KEY}.next") \
            == value
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
