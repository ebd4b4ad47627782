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
        (last: ``ANALYSIS_CACHE_VERSION`` "1" -> "2", recipes unchanged)."""
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
            "44b3c71130601af102a9737c8619fc503241b8c9f1a2ae0f6863663aa3c25d4b",
            "5d1aae3d44c81fa0e4eb5ed074b61546bab81708a449ef172c1a2a651f33b182",
            "032eab20fa0a7f793ff57ce21208254a2cefd86c3bb2ac39c2588ca6343e0cfe",
            "eb04fe001a7f89bb356052327fa0fecb1045926c3fbc694a3a8f639e2380e908",
            "a66c29d989378f7e154f3bc8edc405c783b91ca5807a993d0b53626f05ad055e",
            "332e556747093f964320355da7c6a9aabf58b8007796ed3600018835f98872ee",
            "52af3f4dbcc918f5127e1fed682a04e5bb432104a55eb585b0b6ead4e782f06b",
            "7ceef8aa78b4dd5c70397ac2b61f34f9479a0ad5e3a805432b556012f2e9b2fb",
            "275274db29f0e340bc1d7063529e1db830e4d75474817f9581a2ac87220e1c04",
        ]


class TestStore:
    def test_memory_round_trip(self):
        cache = AnalysisCache()
        assert cache.read("k", dict) is None
        cache.put("k", {"value": 1})
        assert cache.read("k", dict) == {"value": 1}
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
        assert cold_facts == warm_facts

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
