"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
from unittest.mock import Mock

import numpy as np
import pytest

from repro.core.analysis.cache import configure_analysis_cache
from repro.core.dse.cache import clear_caches, configure
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.ir import digest
from repro.core.ir.module import Module


def examples(count: int = 100) -> int:
    """A property test's ``max_examples``: ``count`` (hypothesis's own
    default of 100 where a test never set one), or twenty times as many
    under ``HYPOTHESIS_DEEP=1``, the deep search run outside tier-1."""
    return count * 20 if os.environ.get("HYPOTHESIS_DEEP") == "1" else count


@pytest.fixture(autouse=True)
def _isolated_dse_caches(tmp_path, monkeypatch):
    """Fresh DSE caches per test, and no writes to the real on-disk
    cache: ``default_cache_dir()`` is redirected into ``tmp_path`` and
    the process-global caches are reset to memory-only before and
    after each test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))
    configure(cache_dir=None)
    clear_caches()
    configure_analysis_cache(cache_dir=None)
    yield
    configure(cache_dir=None)
    clear_caches()
    configure_analysis_cache(cache_dir=None)

GEMM_SRC = """
kernel gemm(A: tensor<16x16xf32>, B: tensor<16x16xf32>)
        -> tensor<16x16xf32> {
  C = A @ B
  return C
}
"""

MLP_SRC = """
kernel mlp(X: tensor<16x8xf32>, W0: tensor<8x4xf32>,
           B0: tensor<16x4xf32>, W1: tensor<4x2xf32>,
           B1: tensor<16x2xf32>) -> tensor<16x2xf32> {
  H = relu(X @ W0 + B0)
  Y = sigmoid(H @ W1 + B1)
  return Y
}
"""

STREAM_SRC = """
kernel stream(X: tensor<256xf32>, Y: tensor<256xf32>)
        -> tensor<256xf32> {
  Z = exp(X) * Y + X
  return Z
}
"""

SENSITIVE_SRC = """
kernel score(X: tensor<8x8xf32> @sensitive, W: tensor<8x8xf32>)
        -> tensor<8x8xf32> {
  Y = relu(X @ W)
  return Y
}
"""


def hotpath_kernel(depth: int) -> str:
    """The ben-hotpath kernel: a fused elementwise chain that re-loads
    its two input buffers in every statement, so one loop body of
    ~3*depth operations has all its loads fighting for the same memory
    ports — the pattern that made the reference sweep quadratic."""
    lines = []
    previous = "X"
    for index in range(depth):
        activation = ("exp", "tanh", "sigmoid")[index % 3]
        lines.append(f"  T{index} = {activation}({previous}) * X + G")
        previous = f"T{index}"
    body = "\n".join(lines)
    return (
        "kernel hot(X: tensor<512xf32>, G: tensor<512xf32>)\n"
        "        -> tensor<512xf32> {\n"
        f"{body}\n"
        f"  Y = {previous} + X\n"
        "  return Y\n"
        "}\n"
    )


def count_prints(monkeypatch) -> Mock:
    """``print_module`` as ``module_digest`` calls it, counting calls."""
    printed = Mock(wraps=digest.print_module)
    monkeypatch.setattr(digest, "print_module", printed)
    return printed


@pytest.fixture
def gemm_module() -> Module:
    return compile_kernel(GEMM_SRC)


@pytest.fixture
def mlp_module() -> Module:
    return compile_kernel(MLP_SRC)


@pytest.fixture
def stream_module() -> Module:
    return compile_kernel(STREAM_SRC)


@pytest.fixture
def sensitive_module() -> Module:
    return compile_kernel(SENSITIVE_SRC)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
