"""The content-addressed DSE caches.

The headline regression here reproduces the bug that motivated them:
the old prepared-variant cache was keyed by ``id(module)``, so once a
module was garbage-collected and the interpreter recycled its id for a
*different* module, the cache served the stale prepared body of the
dead module. Content digests make that aliasing impossible.
"""

import gc

import pytest

from repro.core.dse.cache import (
    CostCache,
    clear_caches,
    configure,
    cost_cache,
    default_cache_dir,
    prepared_cache,
)
from repro.core.dse.cost_model import (
    ArchitectureModel,
    evaluate_variant,
    prepare_variant_module,
)
from repro.core.dse.explorer import Explorer
from repro.core.dse.space import DesignSpace
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.ir import module_digest
from repro.core.ir.module import Module
from repro.core.ir.printer import print_module
from repro.core.store import LRUCache
from repro.core.variants import CostEstimate, VariantKnobs
from repro.platform.interconnect import PCIeLink
from tests import goldens
from tests.dse.oracle import CASES, EXPLORED

ADD_SRC = """
kernel k(X: tensor<8xf32>) -> tensor<8xf32> {
  Y = X + X
  return Y
}
"""

MUL_SRC = """
kernel k(X: tensor<8xf32>) -> tensor<8xf32> {
  Y = X * X
  return Y
}
"""

#: ``CostCache.key``'s arguments, by their row in the ``keys`` goldens.
KEY_RECIPES = {
    "cost d1 k fpga/u2/250MHz/auto m1":
        ("d1", "k", VariantKnobs(target="fpga", unroll=2), "m1"),
    "cost d2 gemm cpu/t4/tile8 m1":
        ("d2", "gemm", VariantKnobs(target="cpu", threads=4, tile=8), "m1"),
    "cost 0x64 score cpu/t1 m2": ("0" * 64, "score", VariantKnobs(), "m2"),
}


@goldens.suite("keys", KEY_RECIPES)
def cost_key(recipe):
    """The key one recipe makes."""
    return CostCache.key(*KEY_RECIPES[recipe])


def materialize_at_recycled_id(template, old_id):
    """A distinct :class:`Module` carrying ``template``'s content,
    allocated at the dead module's recycled ``id``.

    Bare ``Module`` allocations land in the same CPython size class as
    the freed object, so marching through fresh blocks (mismatches are
    kept alive) reaches the recycled address almost immediately.
    """
    hold = []
    for _ in range(200_000):
        candidate = object.__new__(Module)
        if id(candidate) == old_id:
            candidate.op = template.op
            return candidate
        hold.append(candidate)
    return None


class TestStaleIdentityRegression:
    def test_recycled_module_id_cannot_alias_cache_entries(self):
        """A new module at a dead module's recycled ``id`` must never
        be served the dead module's prepared body."""
        knobs = VariantKnobs(target="fpga", unroll=2)
        module_a = compile_kernel(ADD_SRC)
        prepared_a_text = print_module(
            prepare_variant_module(module_a, "k", knobs)
        )
        template = compile_kernel(MUL_SRC)  # allocate before freeing
        old_id = id(module_a)
        del module_a
        gc.collect()

        recycled = materialize_at_recycled_id(template, old_id)
        if recycled is None:
            pytest.skip("interpreter never recycled the module id")

        prepared_b = prepare_variant_module(recycled, "k", knobs)
        prepared_b_text = print_module(prepared_b)
        assert prepared_b_text != prepared_a_text
        assert "mul" in prepared_b_text

    def test_recycled_id_cannot_alias_cost_entries(self):
        """Same hazard for the cost cache: costs belong to content."""
        knobs = VariantKnobs(target="cpu", threads=4, tile=8)
        heavy = compile_kernel("""
kernel k(A: tensor<32x32xf32>, B: tensor<32x32xf32>)
        -> tensor<32x32xf32> {
  C = A @ B
  return C
}
""")
        heavy_cost = evaluate_variant(heavy, "k", knobs)
        template = compile_kernel(ADD_SRC)  # allocate before freeing
        old_id = id(heavy)
        del heavy
        gc.collect()

        recycled = materialize_at_recycled_id(template, old_id)
        if recycled is None:
            pytest.skip("interpreter never recycled the module id")

        light_cost = evaluate_variant(recycled, "k", knobs)
        assert light_cost.latency_s != heavy_cost.latency_s

    def test_equal_content_modules_share_entries(self):
        """Two distinct objects with identical content hit one entry —
        the flip side of content addressing (an id key would miss)."""
        knobs = VariantKnobs(target="fpga", unroll=2)
        first = compile_kernel(ADD_SRC)
        second = compile_kernel(ADD_SRC)
        assert first is not second
        assert module_digest(first) == module_digest(second)

        prepared_first = prepare_variant_module(first, "k", knobs)
        before = prepared_cache().stats.snapshot()
        prepared_second = prepare_variant_module(second, "k", knobs)
        delta = prepared_cache().stats.delta(before)
        assert prepared_second is prepared_first
        assert delta.hits == 1 and delta.misses == 0


class TestPreparedModuleCache:
    def test_lru_evicts_oldest(self, gemm_module):
        cache = LRUCache(capacity=2)
        cache.put(("a",), gemm_module)
        cache.put(("b",), gemm_module)
        cache.get(("a",))  # refresh: "b" is now the oldest
        cache.put(("c",), gemm_module)
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is gemm_module
        assert cache.stats.evictions == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)

    def test_clear_reports_count(self, gemm_module):
        cache = LRUCache(capacity=8)
        cache.put(("a",), gemm_module)
        cache.put(("b",), gemm_module)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_points_that_run_the_same_passes_share_one_module(
            self, gemm_module):
        """The LRU key is the pipeline, not the knob point: threads,
        clock, memory strategy, the target and the loop directives
        (unroll, interleave, applied by HLS) are read by no pass."""
        base = VariantKnobs(target="fpga", unroll=2, tile=8)
        before = prepared_cache().stats.snapshot()
        prepared = prepare_variant_module(gemm_module, "gemm", base)
        for same in (
            VariantKnobs(target="fpga", unroll=2, tile=8,
                         clock_hz=350e6),
            VariantKnobs(target="fpga", unroll=2, tile=8,
                         memory_strategy="cyclic"),
            VariantKnobs(target="fpga", unroll=2, tile=8, threads=4),
            VariantKnobs(target="fpga", unroll=4, tile=8),
            VariantKnobs(target="fpga", unroll=2, tile=8, interleave=8),
            VariantKnobs(target="cpu", tile=8),
        ):
            assert prepare_variant_module(
                gemm_module, "gemm", same) is prepared, same
        for other in (
            VariantKnobs(target="fpga", unroll=2),
            VariantKnobs(target="fpga", unroll=2, tile=8, dift=True),
            VariantKnobs(target="fpga", unroll=2, tile=8,
                         matmul_order="ikj"),
            VariantKnobs(target="fpga", unroll=2, tile=8, layout="soa"),
        ):
            assert prepare_variant_module(
                gemm_module, "gemm", other) is not prepared, other
        delta = prepared_cache().stats.delta(before)
        assert (delta.misses, delta.hits) == (5, 6)

    @pytest.mark.parametrize("case", EXPLORED)
    def test_shared_module_is_what_the_point_alone_would_get(
            self, priced, case):
        """Every point of the space: the module it is handed out of
        the shared LRU prints as the one a fresh LRU prepares for that
        point alone, and the space's pipelines serve all its points
        (12 for the 1500 points of the thorough space)."""
        record = priced(case)
        assert record.space_prepare_misses == CASES[case].pipelines
        assert len(record.prepared_texts) == len(
            list(CASES[case].space.points()))
        for knobs, (alone, handed_out) in record.prepared_texts.items():
            assert alone == handed_out, knobs


class TestCostCache:
    def make_cost(self, latency=1.0):
        return CostEstimate(latency_s=latency, energy_j=2.0,
                            data_bytes=64, feasible=True)

    def test_get_returns_fresh_copies(self):
        """The explorer mutates feasibility in place; a shared cached
        instance would poison every later lookup."""
        cache = CostCache()
        cache.put("k1", self.make_cost())
        first = cache.get("k1")
        first.feasible = False
        first.infeasible_reason = "violates latency requirement"
        second = cache.get("k1")
        assert second.feasible is True
        assert second.infeasible_reason == ""

    @pytest.mark.parametrize("workers,workers_mode",
                             [(1, "thread"), (2, "process")])
    def test_feasible_fpga_hit_without_bitstream_is_repriced(
            self, gemm_module, workers, workers_mode):
        """A hit the packager cannot use is no hit: the entry is
        priced again and overwritten, by the serial path and by the
        process pool's parent-side lookup alike."""
        knobs = VariantKnobs(target="fpga", unroll=2)
        space = DesignSpace(targets=("fpga",), unrolls=(2, 4))
        key = CostCache.key(module_digest(gemm_module), "gemm", knobs,
                            ArchitectureModel().fingerprint())
        cost_cache().put(key, self.make_cost(latency=99.0))

        result = Explorer(gemm_module, "gemm", space=space,
                          workers=workers,
                          workers_mode=workers_mode).run("exhaustive")
        priced = result.evaluated[0].cost
        assert priced.feasible and priced.latency_s != 99.0
        assert priced.bitstream is not None
        assert cost_cache().get(key) == priced

    def test_infeasible_and_cpu_hits_need_no_bitstream(
            self, gemm_module):
        for knobs, cost in (
            (VariantKnobs(target="cpu", threads=4), self.make_cost()),
            (VariantKnobs(target="fpga", unroll=2), CostEstimate(
                latency_s=float("inf"), energy_j=float("inf"),
                feasible=False, infeasible_reason="pinned")),
        ):
            key = CostCache.key(module_digest(gemm_module), "gemm",
                                knobs, ArchitectureModel().fingerprint())
            cost_cache().put(key, cost)
            assert evaluate_variant(gemm_module, "gemm", knobs) == cost

    def test_key_is_sensitive_to_every_component(self):
        knobs = VariantKnobs(target="fpga", unroll=2)
        other_knobs = VariantKnobs(target="fpga", unroll=4)
        model = ArchitectureModel()
        other_model = ArchitectureModel(host_memory_bandwidth=60e9)
        base = CostCache.key("d1", "k", knobs, model.fingerprint())
        assert base == CostCache.key("d1", "k", knobs,
                                     model.fingerprint())
        assert base != CostCache.key("d2", "k", knobs,
                                     model.fingerprint())
        assert base != CostCache.key("d1", "other", knobs,
                                     model.fingerprint())
        assert base != CostCache.key("d1", "k", other_knobs,
                                     model.fingerprint())
        assert base != CostCache.key("d1", "k", knobs,
                                     other_model.fingerprint())

    def test_model_fingerprint_tracks_the_fpga_link(self):
        """Equal models share a fingerprint; a slower host link
        changes every predicted FPGA cost, so it changes the key."""
        assert ArchitectureModel().fingerprint() == \
            ArchitectureModel().fingerprint()
        slower = ArchitectureModel(fpga_link=PCIeLink())
        assert slower.fingerprint() != ArchitectureModel().fingerprint()

    def test_keys_are_stable_across_releases(self):
        """The key recipe is pinned: a refactor of the store must not
        orphan anyone's warm cache by key. Re-recorded once, for
        ``CACHE_FORMAT_VERSION`` "1" -> "2": the cost payload gained
        the bitstream record, so entries of older releases must miss,
        and the key became ``<kernel's shard>.<point>`` so that the
        points of one exploration share a shard file."""
        for recipe in KEY_RECIPES:
            goldens.check("keys", recipe)

    def test_one_exploration_is_one_shard_file(self, tmp_path,
                                               gemm_module):
        """The points of one (module, kernel, model) share a key prefix
        and with it a file: a cold compile creates one file per kernel,
        not a directory and a file per point."""
        configure(cache_dir=tmp_path / "cc")
        space = DesignSpace(targets=("cpu", "fpga"), threads=(1, 4),
                            unrolls=(1, 2, 4))
        result = Explorer(gemm_module, "gemm", space=space
                          ).run("exhaustive")
        files = list((tmp_path / "cc").glob("*/*.json"))
        assert len(files) == 1
        assert len(files[0].read_text().splitlines()) \
            == result.evaluations == cost_cache().entry_count()
        other = CostCache.key("d2", "gemm", VariantKnobs(), "m1")
        assert files[0].stem != other.partition(".")[0]


class TestProcessWideConfiguration:
    def test_default_cache_dir_honors_xdg(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / "repro-dse"

    def test_configure_replaces_cost_cache(self, tmp_path):
        replaced = configure(cache_dir=tmp_path / "cc")
        assert cost_cache() is replaced
        assert replaced.directory == tmp_path / "cc"
        configure(cache_dir=None)
        assert cost_cache().directory is None

    def test_clear_caches_counts_both_layers(self, gemm_module):
        knobs = VariantKnobs(target="fpga", unroll=2)
        evaluate_variant(gemm_module, "gemm", knobs)
        assert len(prepared_cache()) > 0
        assert cost_cache().entry_count() > 0
        assert clear_caches() >= 2
        assert len(prepared_cache()) == 0
        assert cost_cache().entry_count() == 0
