"""What a compile packages, pinned across releases and cache states.

The digests below were recorded on the commit *before* pricing started
handing its bitstream to the packager (the packager then re-prepared
and re-synthesized every feasible FPGA variant itself) and must keep
passing on every commit after it: per kernel, in evaluation order, the
knob string, artifact kind, payload and signature of every packaged
variant. The same record must come out of a cold compile, a warm
compile over the same cache directory with memory emptied, a compile
after a populating pass that emitted nothing, and a compile whose
pricing ran in pool children.

The second half counts the work behind that record: each FPGA point is
synthesized once, by pricing, each distinct pass pipeline runs once,
and a warm compile synthesizes nothing.
"""

import hashlib
import json
import os
import random

import pytest

from repro.core.analysis.cache import configure_analysis_cache
from repro.core.analysis.specs import load_kernel_sources
from repro.core.compiler import EverestCompiler
from repro.core.dse.cache import DEFAULT_PREPARED_CAPACITY, configure
from repro.core.dse.space import DesignSpace
from repro.core.hls import bambu
from repro.core.ir.passes import PassManager
from repro.obs.driver import pipeline_from_sources

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
#: Distinct pass pipelines in ``SPACE``: tile x unroll for the FPGA
#: points, tile for the CPU points (no pass reads the other knobs).
FPGA_PIPELINES, CPU_PIPELINES = 6, 2

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


#: sha256 of :func:`package_record`, per application.
GOLDENS = {
    "quickstart":
        "b9562ebd8df7ed74915088a5798b991ddb575c3fbaf89cfed29eae5bbd12e29e",
    "chain":
        "b98a5b23459fe855dcb4537645b33f83a8ff7642392b5b2c2d9b06b3ba34e1d1",
    "matmul":
        "dd809da0e81e9e39dee2db7f3f32d9e45c53c19c7605770e811db4c19b45ec72",
}


def package_record(app) -> str:
    """Canonical JSON of everything the package holds, per kernel."""
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
    return json.dumps(record, sort_keys=True)


def compile_app(app_name: str, cache_dir, **options):
    """One compile with empty memory over the caches in ``cache_dir``."""
    configure(cache_dir=cache_dir / "dse",
              prepared_capacity=DEFAULT_PREPARED_CAPACITY)
    configure_analysis_cache(cache_dir / "analysis")
    pipeline = pipeline_from_sources(app_name, sources_of(app_name))
    return EverestCompiler(space=SPACE, **options).compile(pipeline)


@pytest.mark.parametrize("app_name", sorted(GOLDENS))
def test_package_is_pinned_at_every_cache_state(app_name, tmp_path):
    records = {
        "cold": package_record(compile_app(app_name, tmp_path / "a")),
        "warm": package_record(compile_app(app_name, tmp_path / "a")),
    }
    populated = compile_app(app_name, tmp_path / "b",
                            emit_artifacts=False)
    assert not populated.package.artifacts
    records["after a pass that emitted nothing"] = package_record(
        compile_app(app_name, tmp_path / "b"))
    records["priced in pool children"] = package_record(compile_app(
        app_name, tmp_path / "c", workers=2, workers_mode="process"))
    for state, record in records.items():
        digest = hashlib.sha256(record.encode("utf-8")).hexdigest()
        assert digest == GOLDENS[app_name], state


@pytest.fixture
def built(monkeypatch):
    """Calls of the HLS driver and of the pass pipeline, counted."""
    counts = {"syntheses": 0, "pipelines": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bambu, "synthesize_function", counting(
        "syntheses", bambu.synthesize_function))
    monkeypatch.setattr(PassManager, "run", counting(
        "pipelines", PassManager.run))
    return counts


@pytest.mark.parametrize("app_name", sorted(GOLDENS))
def test_each_variant_is_built_once(app_name, tmp_path, built):
    cold = compile_app(app_name, tmp_path)
    (result,) = cold.exploration.values()
    fpga_points = sum(
        variant.knobs.target == "fpga" for variant in result.evaluated)
    assert fpga_points == 24
    assert built == {"syntheses": fpga_points,
                     "pipelines": FPGA_PIPELINES + CPU_PIPELINES}

    built.update(syntheses=0, pipelines=0)
    warm = compile_app(app_name, tmp_path)
    assert built == {"syntheses": 0, "pipelines": CPU_PIPELINES}
    assert package_record(warm) == package_record(cold)
    assert warm.package.verify_integrity()
