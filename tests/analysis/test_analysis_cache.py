"""Digest-keyed incremental analysis cache tests."""

from repro.core.analysis import analyze_module_cached
from repro.core.analysis.cache import (
    AnalysisCache,
    analysis_cache,
    configure_analysis_cache,
    default_analysis_cache_dir,
)
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.obs import MetricsRegistry, Observation, observe

SRC = """
kernel f(X: tensor<8xf32>) -> tensor<8xf32> {
  Y = relu(X)
  return Y
}
"""

OTHER_SRC = """
kernel f(X: tensor<16xf32>) -> tensor<16xf32> {
  Y = relu(X)
  return Y
}
"""


class TestKeys:
    def test_module_key_is_deterministic(self):
        key = AnalysisCache.module_key("d1", ("absint", "taint"), False)
        assert key == AnalysisCache.module_key(
            "d1", ("absint", "taint"), False)

    def test_module_key_ignores_check_order(self):
        assert AnalysisCache.module_key(
            "d1", ("taint", "absint"),
        ) == AnalysisCache.module_key("d1", ("absint", "taint"))

    def test_module_key_varies_on_every_input(self):
        base = AnalysisCache.module_key("d1", ("absint",), False)
        assert AnalysisCache.module_key("d2", ("absint",), False) != base
        assert AnalysisCache.module_key("d1", ("taint",), False) != base
        assert AnalysisCache.module_key("d1", ("absint",), True) != base

    def test_source_key_varies_on_text_and_checks(self):
        base = AnalysisCache.source_key("spec-a", ("absint",))
        assert AnalysisCache.source_key("spec-a", ("absint",)) == base
        assert AnalysisCache.source_key("spec-b", ("absint",)) != base
        assert AnalysisCache.source_key("spec-a", ("taint",)) != base


    def test_keys_are_stable_across_releases(self):
        """Goldens, three per recipe; re-recorded when a version moves
        (last: ``ANALYSIS_VERSION`` "2" -> "3", recipes unchanged)."""
        zeros = "0" * 64
        assert [
            AnalysisCache.module_key("d1", ("absint", "taint"), False),
            AnalysisCache.module_key("d2", (), True),
            AnalysisCache.module_key(zeros, ("perf",), False),
            AnalysisCache.source_key("spec-a", ("absint",)),
            AnalysisCache.source_key("", ()),
            AnalysisCache.source_key(
                "path\x1ftext", ("absint,taint|wf|",)),
            AnalysisCache.perf_key("d1", "k"),
            AnalysisCache.perf_key("d2", "gemm"),
            AnalysisCache.perf_key(zeros, "score"),
        ] == [
            "b74ab8df3b42162c6d641ec7123cd8e892aaafa0ab4be62ea103f1796e074eda",
            "98858ebd02b3c370f5b4d9d0f53c110db1e02ef80c4839dbb5c055ad7da46afe",
            "1b4dc66bd6b11fc621cf61662ad8331d0c31f10e88f815d02a364af301f0993f",
            "474384605126cad1b45867ee3bbb80e9cffd1fceb0416d92acb8e6a9c538a3af",
            "d32c10d21c0e24940b0c216bab58dea352b9c4da215d25070deffd0b1a6c1588",
            "08c16f55f9977f56c289882a3da0bc5cb543d67ba6685c894c41d01f346464f4",
            "db2941f955951cfea2aa1814a831d9dc3852c06d296356ca8ad1c2721da733ff",
            "b002bb43311ca88b8f0a78901812c33b246ed9f9b843c4b549fe3fa64e94f589",
            "056f18834a30a8eff17ae0f3a2b40c41b9ba8eeee5d19bf8f4c4d7b4e60427e0",
        ]


class TestStore:
    def test_memory_round_trip(self):
        cache = AnalysisCache()
        assert cache.get("k") is None
        cache.put("k", {"value": 1})
        assert cache.get("k") == {"value": 1}
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_default_dir_is_xdg_aware(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_analysis_cache_dir() == (
            tmp_path / "xdg" / "repro-analysis")

    def test_configure_replaces_process_instance(self, tmp_path):
        configured = configure_analysis_cache(cache_dir=tmp_path / "a")
        assert analysis_cache() is configured
        configure_analysis_cache(cache_dir=None)
        assert analysis_cache().directory is None


class TestAnalyzeModuleCached:
    def test_warm_hit_replays_identical_results(self):
        analysis_cache().clear()
        cold_diag, cold_facts, cold_hit = analyze_module_cached(
            compile_kernel(SRC))
        # a fresh but structurally identical module hits the cache
        warm_diag, warm_facts, warm_hit = analyze_module_cached(
            compile_kernel(SRC))
        assert (cold_hit, warm_hit) == (False, True)
        assert [item.to_dict() for item in cold_diag] == [
            item.to_dict() for item in warm_diag]
        assert cold_facts.to_payload() == warm_facts.to_payload()

    def test_structural_change_misses(self):
        analysis_cache().clear()
        _, _, first = analyze_module_cached(compile_kernel(SRC))
        _, _, second = analyze_module_cached(compile_kernel(OTHER_SRC))
        assert (first, second) == (False, False)

    def test_check_subset_keys_separately(self):
        analysis_cache().clear()
        analyze_module_cached(compile_kernel(SRC))
        _, facts, hit = analyze_module_cached(
            compile_kernel(SRC), checks=("taint",))
        assert not hit
        _, _, again = analyze_module_cached(
            compile_kernel(SRC), checks=("taint",))
        assert again

    def test_traffic_reaches_the_metrics_registry(self):
        analysis_cache().clear()
        metrics = MetricsRegistry()
        with observe(Observation(metrics=metrics)):
            analyze_module_cached(compile_kernel(SRC))
            analyze_module_cached(compile_kernel(SRC))
        hits = metrics.counter("analysis.cache_hits")
        misses = metrics.counter("analysis.cache_misses")
        assert hits.value(layer="module") == 1
        assert misses.value(layer="module") == 1


class TestCompilerGateCaching:
    def _pipeline(self):
        from repro.core.dsl.workflow import Pipeline
        from repro.core.ir.types import F32, TensorType

        pipeline = Pipeline("app")
        source = pipeline.source("raw", TensorType((8,), F32))
        task = pipeline.task("t", SRC, inputs=[source], kernel="f")
        pipeline.sink("out", task.output(0))
        return pipeline

    def test_second_compile_hits_the_analysis_cache(self):
        from repro.core.compiler import EverestCompiler

        analysis_cache().clear()
        metrics = MetricsRegistry()
        compiler = EverestCompiler(emit_artifacts=False)
        with observe(Observation(metrics=metrics)):
            compiler.compile(self._pipeline())
            compiler.compile(self._pipeline())
        assert metrics.counter(
            "analysis.cache_hits").value(layer="module") == 1
        assert metrics.counter(
            "analysis.cache_misses").value(layer="module") == 1
