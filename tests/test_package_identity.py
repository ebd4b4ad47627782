"""What a compile packages, pinned across releases and cache states.

The records in ``tests/goldens/package.jsonl`` were made on the commit
*before* pricing started handing its bitstream to the packager (the
packager then re-prepared and re-synthesized every feasible FPGA
variant itself) and must keep matching on every commit after it: per
kernel, in evaluation order, the knob string, artifact kind, payload
and signature of every packaged variant. The same record must come out
of a cold compile, a warm compile over the same cache directory with
memory emptied, a compile after a populating pass that emitted nothing,
and a warm compile over a cache directory filled by pricing in pool
children.

The second half counts the work behind that record: each FPGA design
of a distinct prepared content is synthesized once, by pricing, and
its clocks and the pipelines preparing equal modules share that
synthesis; each distinct pass pipeline runs once, and a warm compile
synthesizes nothing.
"""

import functools
import os
import random

import pytest

from repro.core import compiler
from repro.core.analysis.cache import configure_analysis_cache
from repro.core.analysis.specs import load_kernel_sources
from repro.core.compiler import EverestCompiler
from repro.core.dse.cache import (
    DEFAULT_PREPARED_CAPACITY,
    configure,
    cost_cache,
)
from repro.core.dse import cost_model
from repro.core.dse.explorer import Explorer
from repro.core.dse.space import DesignSpace
from repro.core.ir.passes import PassManager
from repro.obs.driver import pipeline_from_sources
from tests import goldens
from tests.dse.oracle import distinct_builds, pipelines

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Shares pass pipelines between points (two clocks, two memory
#: strategies, four thread counts) and forks them (tile, unroll).
SPACE = DesignSpace(
    targets=("cpu", "fpga"),
    threads=(1, 2, 4, 8),
    unrolls=(1, 2, 4),
    tiles=(0, 8),
    memory_strategies=("auto", "cyclic"),
    clocks_hz=(250e6, 350e6),
)

_STEPS = ("{0} + Y", "{0} - Y", "{0} * Y", "tanh({0})", "sigmoid({0})",
          "relu({0})", "exp({0})")


def chain_source(seed: str, depth: int = 6) -> str:
    """A seeded element-wise chain kernel."""
    rng = random.Random(seed)
    elements = rng.choice((128, 256))
    lines, current = [], "X"
    for position in range(depth):
        lines.append(
            f"  v{position} = {rng.choice(_STEPS).format(current)}")
        current = f"v{position}"
    return (
        f"kernel chain(X: tensor<{elements}xf32>, "
        f"Y: tensor<{elements}xf32>) -> tensor<{elements}xf32> {{\n"
        + "\n".join(lines) + f"\n  return {current}\n}}\n"
    )


def matmul_source(seed: str) -> str:
    """A seeded matmul kernel."""
    rng = random.Random(seed)
    m, k, n = (rng.choice((8, 16)) for _ in range(3))
    return (
        f"kernel mm(A: tensor<{m}x{k}xf32>, B: tensor<{k}x{n}xf32>) "
        f"-> tensor<{m}x{n}xf32> {{\n  C = relu(A @ B)\n  return C\n}}\n"
    )


def sources_of(app_name: str):
    if app_name == "quickstart":
        return load_kernel_sources(
            os.path.join(ROOT, "examples", "quickstart.py"))
    if app_name == "chain":
        return [chain_source("package-identity-chain")]
    return [matmul_source("package-identity-matmul")]


APPS = ["chain", "matmul", "quickstart"]


def package_record(app):
    """Everything the package holds, per kernel: one row per packaged
    variant."""
    record = {}
    for kernel, result in app.exploration.items():
        rows = record[kernel] = []
        for variant in result.feasible:
            artifact = app.package.artifact_for(variant)
            payload = artifact.payload
            if artifact.kind == "bitstream":
                fields = [
                    payload.name, payload.footprint.luts,
                    payload.footprint.ffs, payload.footprint.bram_kb,
                    payload.footprint.dsps, payload.clock_hz,
                    payload.dynamic_watts, payload.size_bytes,
                    payload.partial,
                ]
            else:
                fields = [payload.arch, payload.threads,
                          payload.checksum]
            rows.append([variant.knobs.describe(), artifact.kind,
                         fields, artifact.signature])
    return record


def compile_app(app_name: str, cache_dir, **options):
    """One compile with empty memory over the caches in ``cache_dir``
    (in memory only when None)."""
    configure(cache_dir=cache_dir and cache_dir / "dse",
              prepared_capacity=DEFAULT_PREPARED_CAPACITY)
    configure_analysis_cache(cache_dir and cache_dir / "analysis")
    pipeline = pipeline_from_sources(app_name, sources_of(app_name))
    return EverestCompiler(space=SPACE, **options).compile(pipeline)


@goldens.suite("package", APPS)
def packaged(app_name, cache_dir=None):
    """The package record of a compile over ``cache_dir``."""
    return package_record(compile_app(app_name, cache_dir))


def compile_priced_in_pool_children(app_name, cache_dir, monkeypatch):
    """A compile that prices nothing, over caches a populating compile
    filled with a two-process ``Explorer`` in place of the serial one."""
    with monkeypatch.context() as patch:
        patch.setattr(compiler, "Explorer", functools.partial(
            Explorer, workers=2, workers_mode="process"))
        compile_app(app_name, cache_dir, emit_artifacts=False)
    app = compile_app(app_name, cache_dir)
    assert cost_cache().stats.misses == 0
    return app


@pytest.mark.parametrize("app_name", APPS)
def test_package_is_pinned_at_every_cache_state(app_name, tmp_path,
                                                monkeypatch):
    # cold, then warm over the same directory with memory emptied
    goldens.check("package", app_name, cache_dir=tmp_path / "a")
    goldens.check("package", app_name, cache_dir=tmp_path / "a")
    populated = compile_app(app_name, tmp_path / "b",
                            emit_artifacts=False)
    assert not populated.package.artifacts
    goldens.check("package", app_name, cache_dir=tmp_path / "b")
    goldens.check("package", app_name, package_record(
        compile_priced_in_pool_children(app_name, tmp_path / "c",
                                        monkeypatch)))


@pytest.fixture
def built(monkeypatch):
    """Calls of the HLS driver and of the pass pipeline, counted."""
    counts = {"syntheses": 0, "pipelines": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cost_model, "synthesize", counting(
        "syntheses", cost_model.synthesize))
    monkeypatch.setattr(PassManager, "run", counting(
        "pipelines", PassManager.run))
    return counts


@pytest.mark.parametrize("app_name", APPS)
def test_each_variant_is_built_once(app_name, tmp_path, built):
    cold = compile_app(app_name, tmp_path)
    (result,) = cold.exploration.values()
    fpga_points = [variant.knobs for variant in result.evaluated
                   if variant.knobs.target == "fpga"]
    designs = {(knobs.tile, knobs.unroll, knobs.memory_strategy)
               for knobs in fpga_points}
    assert (len(fpga_points), len(designs)) == (24, 12)
    counted = dict(built)
    (kernel,) = cold.exploration
    distinct = distinct_builds(cold.module, kernel, fpga_points)
    # one pipeline per tile on the matmul, one on the other two: the
    # CPU and FPGA points share them (no pass reads the other knobs;
    # HLS applies the unroll factor)
    prepared = pipelines(cold.module, SPACE.points())
    assert counted == {"syntheses": distinct["synthesize"],
                       "pipelines": prepared}

    built.update(syntheses=0, pipelines=0)
    warm = compile_app(app_name, tmp_path)
    assert built == {"syntheses": 0, "pipelines": prepared}
    assert package_record(warm) == package_record(cold)
    assert warm.package.verify_integrity()
