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
from tests import goldens

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

_ZEROS = "0" * 64
#: The analysis cache's key recipes, by their row in the ``keys`` goldens.
KEY_RECIPES = {
    "analysis module_key d1 absint,taint":
        lambda: AnalysisCache.module_key("d1", ("absint", "taint")),
    "analysis module_key 0x64 perf":
        lambda: AnalysisCache.module_key(_ZEROS, ("perf",)),
    "analysis perf_key d1 k": lambda: AnalysisCache.perf_key("d1", "k"),
    "analysis perf_key d2 gemm":
        lambda: AnalysisCache.perf_key("d2", "gemm"),
    "analysis perf_key 0x64 score":
        lambda: AnalysisCache.perf_key(_ZEROS, "score"),
}


@goldens.suite("keys", KEY_RECIPES)
def analysis_key(recipe):
    """The key one recipe makes."""
    return KEY_RECIPES[recipe]()


class TestKeys:
    def test_module_key_is_deterministic(self):
        key = AnalysisCache.module_key("d1", ("absint", "taint"))
        assert key == AnalysisCache.module_key("d1", ("absint", "taint"))

    def test_module_key_ignores_check_order(self):
        assert AnalysisCache.module_key(
            "d1", ("taint", "absint"),
        ) == AnalysisCache.module_key("d1", ("absint", "taint"))

    def test_module_key_varies_on_every_input(self):
        base = AnalysisCache.module_key("d1", ("absint",))
        assert AnalysisCache.module_key("d2", ("absint",)) != base
        assert AnalysisCache.module_key("d1", ("taint",)) != base

    def test_keys_are_stable_across_releases(self):
        """Golden rows, one per recipe; re-recorded when a version moves
        (last: ``ANALYSIS_CACHE_VERSION`` "1" -> "2", recipes unchanged)."""
        for recipe in KEY_RECIPES:
            goldens.check("keys", recipe)


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

    def test_digest_keys_the_entry(self):
        analysis_cache().clear()
        analyze_module_cached(compile_kernel(SRC))
        _, _, hit = analyze_module_cached(
            compile_kernel(SRC), digest="0" * 64)
        assert not hit
        _, _, again = analyze_module_cached(
            compile_kernel(SRC), digest="0" * 64)
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
