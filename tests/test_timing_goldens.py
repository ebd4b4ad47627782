"""Priced numbers, bounds and reports pinned across releases.

The determinism suites compare a run with itself; these records were
made on the commit *before* the accelerator timing arithmetic was
factored into :mod:`repro.core.timing` and must keep matching on every
commit after it: a refactor of the port / II / cycle / link terms that
moves a priced cost, a bound, a lint message or a ``repro perf`` row
shows up here as a moved row of ``tests/goldens/{fronts,bounds,perf,
lint}.jsonl``.
"""

import json
import os

import pytest

from repro.core.analysis.perf import kernel_bounds
from repro.core.dse import DesignSpace, Explorer
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.store import encode
from tests import goldens
from tests.conftest import GEMM_SRC, MLP_SRC, STREAM_SRC

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "analysis", "fixtures")

KERNELS = {"gemm": GEMM_SRC, "mlp": MLP_SRC, "stream": STREAM_SRC}
FRONTS = [f"{kernel}/{space}" for kernel in sorted(KERNELS)
          for space in ("small", "thorough")]
LINTED = ["oob_access.ir", "perf_invariant_load.ir",
          "perf_memory_bound.ir", "perf_nonaffine.ir",
          "perf_recurrence_ii.ir", "perf_unroll_ports.ir"]


@goldens.suite("fronts", FRONTS)
def exhaustive_exploration(key):
    kernel, space = key.split("/")
    return json.loads(Explorer(
        compile_kernel(KERNELS[kernel]), kernel,
        getattr(DesignSpace, space)(),
    ).run("exhaustive").to_json())


@goldens.suite("bounds", sorted(KERNELS))
def static_bounds(kernel):
    return encode(kernel_bounds(compile_kernel(KERNELS[kernel]), kernel))


@goldens.suite("perf", ["quickstart/score"])
def perf_report(key):
    spec, kernel = key.split("/")
    code, lines = goldens.printed(["perf", f"examples/{spec}.py",
                                   "--kernel", kernel, "--no-cache"], ROOT)
    assert code == 0
    return lines


@goldens.suite("lint", LINTED)
def lint_json(fixture):
    return goldens.printed(["lint", fixture, "--format", "json"],
                           FIXTURES)[1]


@pytest.mark.parametrize("key", FRONTS)
def test_exhaustive_exploration_pinned(key):
    goldens.check("fronts", key)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_static_bounds_payload_pinned(kernel):
    goldens.check("bounds", kernel)


def test_perf_report_text_pinned():
    goldens.check("perf", "quickstart/score")


@pytest.mark.parametrize("fixture", LINTED)
def test_lint_json_pinned(fixture):
    goldens.check("lint", fixture)
