"""Priced numbers, bounds and reports pinned across releases.

The determinism suites compare a run with itself; these digests were
recorded on the commit *before* the accelerator timing arithmetic was
factored into :mod:`repro.core.timing` and must keep passing on every
commit after it: a refactor of the port / II / cycle / link terms that
moves a priced cost, a bound, a lint message or a ``repro perf`` row
shows up here as a changed digest.
"""

import hashlib
import itertools
import json
import os

import pytest

from repro.cli import main
from repro.core.analysis.perf import clear_bounds_memo, kernel_bounds
from repro.core.dse import DesignSpace, Explorer
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.ir import ops
from repro.core.store import encode
from tests.conftest import GEMM_SRC, MLP_SRC, STREAM_SRC

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "analysis", "fixtures")

KERNELS = {"gemm": GEMM_SRC, "mlp": MLP_SRC, "stream": STREAM_SRC}

FRONT_DIGESTS = {
    "gemm/small": "38c5a06b76e5e2d5ba9f63164e2c6c663d83b43978985b60349191bb39c6c7e2",
    "gemm/thorough": "d0ec1963dfb873f79d70691991e1490e51a1189b485d3917704aadbf47c86468",
    "mlp/small": "ea7533cb4596769ae546479645505a3af5651da12ac6971332ec1f753786d1cc",
    "mlp/thorough": "c721f8c86ce59b0b4cdf525ee400013dbc4e41259e7ef6d9d4a07c081156bea1",
    "stream/small": "dd89bafd736d2d639a53e6caa9b2926bfc5ec9dd56592b8282c3324f13366f44",
    "stream/thorough": "99b834e8b1581d0e79dd68053e10ecb8e8e8ad580ea80a9cdb55116635dc44ee",
}

BOUNDS_DIGESTS = {
    "gemm": "198906280d85e2ed6ce2e1a6c62b5e2f5a21a637d39ef3ebab53aaa87418318f",
    "mlp": "e5c779a5674a3db5393c9a8060e1677e87d25769a07b4d8b9b5cd0430b311eae",
    "stream": "1fca874d828f78d870012417daef6a25221b81896cd171d6cee02dfcdf003650",
}

PERF_REPORT_DIGEST = "d3400d0a63618e1f0e420b95deb25b7ac4b6537cca1169aecaede1288b0ab491"

LINT_DIGESTS = {
    "oob_access.ir": "4f3133a2ae30fbeacd2cbbe74583ef1a147decdc277224b42755eb7343288668",
    "perf_invariant_load.ir": "23b585e956258d8b137b48d3c69a230887eb3142ca8a0d5506b60bf45c1a923d",
    "perf_memory_bound.ir": "e17ce8026ed19790cc94a2dfb844955fb0ec51b5ab7b92b01aeb30750359c3de",
    "perf_nonaffine.ir": "8833fa2070b7d3c86037f01af18744cfe4cb73897fa446687ecaf89a9acacf15",
    "perf_recurrence_ii.ir": "41f00452ab36ad9152f4af4752c3901378d5e448afd60c8fea5e0fbdf09210bd",
    "perf_unroll_ports.ir": "f66d71917c684c84a0648927bd4ef4d6de7b6e78b2db39671775099047146a77",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(autouse=True)
def _fresh_value_names(monkeypatch):
    """Buffer names (``v14``) come from a process-global counter and
    show up in bounds payloads and reports: restart it, and drop
    bounds memoized under earlier names, so the pinned text does not
    depend on which tests ran before."""
    monkeypatch.setattr(ops, "_value_counter", itertools.count())
    clear_bounds_memo()


@pytest.mark.parametrize("key", sorted(FRONT_DIGESTS))
def test_exhaustive_exploration_pinned(key):
    kernel, space = key.split("/")
    result = Explorer(
        compile_kernel(KERNELS[kernel]), kernel,
        getattr(DesignSpace, space)(),
    ).run("exhaustive")
    assert sha256(result.to_json()) == FRONT_DIGESTS[key]


@pytest.mark.parametrize("kernel", sorted(BOUNDS_DIGESTS))
def test_static_bounds_payload_pinned(kernel):
    bounds = kernel_bounds(compile_kernel(KERNELS[kernel]), kernel)
    payload = json.dumps(encode(bounds), sort_keys=True)
    assert sha256(payload) == BOUNDS_DIGESTS[kernel]


def test_perf_report_text_pinned(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(["perf", "examples/quickstart.py", "--kernel", "score",
                 "--no-cache"]) == 0
    assert sha256(capsys.readouterr().out) == PERF_REPORT_DIGEST


@pytest.mark.parametrize("fixture", sorted(LINT_DIGESTS))
def test_lint_json_pinned(capsys, monkeypatch, fixture):
    monkeypatch.chdir(FIXTURES)
    main(["lint", fixture, "--format", "json"])
    assert sha256(capsys.readouterr().out) == LINT_DIGESTS[fixture]
