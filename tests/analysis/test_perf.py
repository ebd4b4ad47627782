"""The static performance analyzer: bounds, PERF diagnostics, CLI.

Three surfaces are covered here:

* :func:`compute_kernel_bounds` / :func:`kernel_bounds` — the analytic
  record itself (work, traffic with reuse credit, II floors, roofline
  verdict) plus its payload round-trip and cache behavior.
* ``repro lint`` — every PERF code has a true-positive fixture under
  ``fixtures/`` that must fire, error codes must exit 1, and the
  ``--only`` / ``--suppress`` / ``--stats`` plumbing must treat the
  perf pass like any other analysis.
* ``repro perf`` and ``repro cache`` — the report CLI and the cache
  breakdown rows that account for persisted bounds.
"""

import json
import math
import os

import pytest

from repro.cli import main
from repro.core.analysis.cache import (
    AnalysisCache,
    configure_analysis_cache,
)
from repro.core.analysis.perf import (
    BufferInfo,
    NestBounds,
    check_module_perf,
    clear_bounds_memo,
    compute_kernel_bounds,
    kernel_bounds,
)
from repro.core.dse.cost_model import ArchitectureModel, bound_for
from repro.core.ir import module_digest
from repro.core.variants import VariantKnobs

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


# ---------------------------------------------------------------------------
# The analytic record


class TestKernelBounds:
    def test_gemm_work_and_traffic(self, gemm_module):
        bounds = compute_kernel_bounds(gemm_module, "gemm")
        assert bounds.kernel == "gemm"
        # 16x16x16 matmul: 2 flops per MAC.
        assert bounds.work == 8192.0
        # three 16x16 f32 tensors.
        assert bounds.data_bytes == 3 * 16 * 16 * 4
        assert bounds.arg_bytes == 3 * 16 * 16 * 4
        assert bounds.verdict == "compute-bound"

    def test_gemm_nests(self, gemm_module):
        bounds = compute_kernel_bounds(gemm_module, "gemm")
        # init nest (fill C) + the contraction nest.
        assert len(bounds.nests) == 2
        fill, matmul = bounds.nests
        assert fill.trip == 16 and fill.outer_iters == 16
        assert matmul.trip == 16 and matmul.outer_iters == 256
        # the accumulation chain: load + addf + store.
        assert matmul.chain_latency > 0
        assert matmul.ops.get("fmul") == 1
        assert matmul.ops.get("fadd") == 1

    def test_reuse_credit_shrinks_traffic(self, gemm_module):
        bounds = compute_kernel_bounds(gemm_module, "gemm")
        assert bounds.traffic
        # The accumulator row is invariant in the contraction loop, so
        # at least one buffer must get reuse credit...
        assert any(
            t.bytes_moved < t.bytes_naive for t in bounds.traffic
        )
        # ...and credit never inflates traffic.
        for t in bounds.traffic:
            assert 0 < t.bytes_moved <= t.bytes_naive

    def test_unknown_kernel_is_none(self, gemm_module):
        assert kernel_bounds(gemm_module, "nope") is None

    def test_memoized_by_digest(self, gemm_module):
        configure_analysis_cache(cache_dir=None)
        digest = module_digest(gemm_module)
        first = kernel_bounds(gemm_module, "gemm", digest=digest)
        second = kernel_bounds(gemm_module, "gemm", digest=digest)
        assert first is second

    def test_persists_in_analysis_cache(self, gemm_module, tmp_path):
        configure_analysis_cache(cache_dir=tmp_path)
        clear_bounds_memo()
        try:
            digest = module_digest(gemm_module)
            bounds = kernel_bounds(gemm_module, "gemm", digest=digest)
            assert bounds is not None
            store = AnalysisCache(directory=tmp_path)
            breakdown = store.breakdown()
            assert breakdown["perf"]["entries"] >= 1
        finally:
            configure_analysis_cache(cache_dir=None)


class TestNestBounds:
    def test_min_ii_unlimited_ports(self):
        nest = NestBounds("k/nest0", 1, 16, 1,
                          accesses={"%0": 4}, chain_latency=0)
        assert nest.ii_floor(8, {"%0": 0})[0] == 1

    def test_min_ii_port_pressure(self):
        nest = NestBounds("k/nest0", 1, 16, 1, accesses={"%0": 2})
        # 2 accesses x 8 copies over 4 ports -> II >= 4.
        assert nest.ii_floor(8, {"%0": 4})[0] == 4

    def test_min_ii_chain_floor(self):
        nest = NestBounds("k/nest0", 1, 16, 1,
                          accesses={"%0": 1}, chain_latency=6)
        assert nest.ii_floor(1, {"%0": 4})[0] == 6

    def test_effective_unroll_clamped_to_trip(self):
        nest = NestBounds("k/nest0", 1, 4, 1, accesses={"%0": 1})
        # unroll 16 on a trip-4 loop only replicates 4 bodies.
        assert nest.ii_floor(16, {"%0": 2})[0] == math.ceil(4 / 2)


class TestBufferPorts:
    def test_explicit_complete_is_unlimited(self):
        info = BufferInfo("%0", 16, 32, total_accesses=2,
                          scheme="complete", factor=0)
        assert info.ports("auto", 8) == 0

    def test_explicit_factor_caps_ports(self):
        info = BufferInfo("%0", 16, 32, total_accesses=2,
                          scheme="cyclic", factor=2)
        assert info.ports("auto", 8) == 4

    def test_strategy_none_single_bank(self):
        info = BufferInfo("%0", 1024, 32, total_accesses=6)
        assert info.ports("none", 8) == 2

    def test_small_alloc_registers(self):
        info = BufferInfo("%0", 4, 32, total_accesses=3,
                          small_alloc=True)
        assert info.ports("auto", 8) == 0

    def test_auto_doubles_to_demand(self):
        info = BufferInfo("%0", 1024, 32, total_accesses=3)
        # needed = 3 accesses x unroll 2 = 6 -> factor 4 -> 8 ports.
        assert info.ports("auto", 2) == 8


class TestBoundFor:
    def test_cpu_bound_is_exact(self, gemm_module):
        from repro.core.dse.cost_model import cpu_cost_terms

        bounds = compute_kernel_bounds(gemm_module, "gemm")
        model = ArchitectureModel()
        knobs = VariantKnobs(target="cpu", threads=4)
        lat, en = bound_for(bounds, knobs, model)
        exact = cpu_cost_terms(
            bounds.work, bounds.data_bytes, knobs, model
        )
        assert (lat, en) == (exact[0], exact[1] * exact[0]) or \
            (lat, en) == exact
        assert lat > 0 and en > 0

    def test_fpga_without_fpga_is_infeasible(self, gemm_module):
        bounds = compute_kernel_bounds(gemm_module, "gemm")
        model = ArchitectureModel()
        model.fpga_role_capacity = None
        model.fpga_link = None
        knobs = VariantKnobs(target="fpga", unroll=2)
        lat, en = bound_for(bounds, knobs, model)
        assert lat == math.inf and en == math.inf

    def test_fpga_bound_positive(self, gemm_module):
        bounds = compute_kernel_bounds(gemm_module, "gemm")
        knobs = VariantKnobs(target="fpga", unroll=1)
        lat, en = bound_for(bounds, knobs, ArchitectureModel())
        assert 0 < lat < math.inf
        assert 0 < en < math.inf


# ---------------------------------------------------------------------------
# PERF diagnostics through the lint CLI


def run_lint(*argv):
    return main(["lint", *argv])


class TestPerfFixtures:
    @pytest.mark.parametrize(
        "name,code,exit_code",
        [
            ("perf_unroll_ports.ir", "PERF001", 1),
            ("perf_invariant_load.ir", "PERF002", 0),
            ("perf_nonaffine.ir", "PERF003", 0),
            ("perf_memory_bound.ir", "PERF004", 0),
            ("perf_recurrence_ii.ir", "PERF005", 1),
        ],
    )
    def test_true_positive(self, capsys, name, code, exit_code):
        rc = run_lint(fixture(name), "--only", "perf",
                      "--format", "json", "--no-cache")
        assert rc == exit_code
        payload = json.loads(capsys.readouterr().out)
        codes = {item["code"] for item in payload["diagnostics"]}
        assert code in codes

    def test_unroll_ports_message_names_the_numbers(self, capsys):
        run_lint(fixture("perf_unroll_ports.ir"), "--only", "perf",
                 "--no-cache")
        out = capsys.readouterr().out
        assert "unroll 8 demands 16 concurrent ports" in out
        assert "cyclic factor 2 provides only 4" in out

    def test_only_excludes_perf(self, capsys):
        rc = run_lint(fixture("perf_unroll_ports.ir"),
                      "--only", "taint", "--format", "json",
                      "--no-cache")
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert not any(
            item["code"].startswith("PERF")
            for item in payload["diagnostics"]
        )

    def test_suppress_perf_codes(self, capsys):
        rc = run_lint(fixture("perf_unroll_ports.ir"),
                      "--only", "perf", "--format", "json",
                      "--suppress", "PERF001", "--suppress", "PERF005",
                      "--no-cache")
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["error"] == 0

    def test_stats_shows_perf_pass(self, capsys):
        rc = run_lint(fixture("perf_memory_bound.ir"), "--stats",
                      "--no-cache")
        assert rc == 0
        err = capsys.readouterr().err
        assert "analysis:perf" in err

    def test_examples_clean_under_only_perf(self, capsys):
        examples = os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir,
            "examples",
        )
        assert run_lint(examples, "--only", "perf", "--no-cache") == 0


class TestCheckModulePerf:
    def test_tensor_form_is_skipped(self, gemm_module):
        diags = check_module_perf(gemm_module)
        assert diags.summary() == {"error": 0, "warning": 0, "note": 0}


# ---------------------------------------------------------------------------
# ``repro perf`` and the cache breakdown


QUICKSTART = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir,
    "examples", "quickstart.py",
)


class TestPerfCommand:
    def test_text_report(self, capsys):
        rc = main(["perf", QUICKSTART, "--kernel", "score",
                   "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "static bounds for 'score'" in out
        assert "loop-nest bounds (unroll 1)" in out
        assert "buffer traffic per invocation" in out

    def test_json_report(self, capsys):
        rc = main(["perf", QUICKSTART, "--kernel", "score",
                   "--format", "json", "--no-cache"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "perf"
        assert payload["kernel"] == "score"
        assert payload["work"] > 0
        assert payload["nests"]

    def test_unknown_kernel_fails(self, capsys):
        assert main(["perf", QUICKSTART, "--kernel", "nope",
                     "--no-cache"]) == 2
        assert "repro perf: error: no kernel named 'nope'" in (
            capsys.readouterr().err
        )

    def test_cache_stats_roundtrip(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "analysis")
        clear_bounds_memo()
        rc = main(["perf", QUICKSTART, "--kernel", "score",
                   "--cache-dir", cache_dir])
        assert rc == 0
        capsys.readouterr()
        try:
            assert main(["cache", "stats",
                         "--cache-dir", cache_dir]) == 0
            out = capsys.readouterr().out
            assert "perf entries" in out
            assert "perf disk bytes" in out

            assert main(["cache", "clear",
                         "--cache-dir", cache_dir]) == 0
            capsys.readouterr()
            assert main(["cache", "stats",
                         "--cache-dir", cache_dir]) == 0
            out = capsys.readouterr().out
            assert "perf entries" not in out
        finally:
            configure_analysis_cache(cache_dir=None)
