"""PassManager post-pass verification and linting tests."""

import pytest

from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.ir.passes import Pass, PassManager
from repro.core.ir.types import F32
from repro.diagnostics import Diagnostics
from repro.errors import AnalysisError, PassError

SRC = """
kernel f(X: tensor<8xf32>) -> tensor<8xf32> {
  Y = relu(X)
  return Y
}
"""


class NoOpPass(Pass):
    def run(self, module):
        return False


class DropTerminatorPass(Pass):
    """Deliberately broken: removes the function's terminator."""

    def run(self, module):
        function = next(iter(module.functions()))
        function.entry_block.operations.pop()
        return True


class TestVerifyEach:
    def test_broken_pass_caught_and_named(self):
        module = compile_kernel(SRC)
        manager = PassManager(verify_each=True)
        manager.add(DropTerminatorPass())
        with pytest.raises(
            PassError, match="after pass DropTerminatorPass"
        ):
            manager.run(module)

    def test_pass_error_carries_diagnostics(self):
        module = compile_kernel(SRC)
        manager = PassManager(verify_each=True)
        manager.add(DropTerminatorPass())
        try:
            manager.run(module)
        except PassError as exc:
            codes = {item.code for item in exc.diagnostics}
            assert "IR005" in codes  # missing func.return
            assert "PM001" in codes  # the pass-manager wrapper
        else:
            pytest.fail("expected PassError")

    def test_healthy_pipeline_unaffected(self):
        module = compile_kernel(SRC)
        manager = PassManager(verify_each=True)
        manager.add(NoOpPass())
        manager.run(module)
        assert not manager.diagnostics.has_errors

    def test_verify_each_off_lets_breakage_through(self):
        module = compile_kernel(SRC)
        manager = PassManager(verify_each=False)
        manager.add(DropTerminatorPass())
        manager.run(module)  # no exception: nothing checked


class TestCompilerGate:
    def _pipeline(self):
        from repro.core.dsl.workflow import Pipeline
        from repro.core.ir.types import TensorType

        pipeline = Pipeline("app")
        source = pipeline.source("raw", TensorType((8,), F32))
        task = pipeline.task("t", SRC, inputs=[source], kernel="f")
        pipeline.sink("out", task.output(0))
        return pipeline

    def test_compile_populates_diagnostics(self):
        from repro.core.compiler import EverestCompiler

        compiler = EverestCompiler(emit_artifacts=False)
        app = compiler.compile(self._pipeline())
        assert not app.diagnostics.has_errors

    def test_gate_blocks_statically_invalid_module(self, monkeypatch):
        from repro.core import compiler as compiler_module
        from repro.core.compiler import EverestCompiler

        def poisoned(module, **_kwargs):
            diagnostics = Diagnostics()
            diagnostics.error("SEC001", "injected violation")
            return diagnostics, None, False

        monkeypatch.setattr(
            compiler_module, "analyze_module_cached", poisoned
        )
        compiler = EverestCompiler(emit_artifacts=False)
        with pytest.raises(AnalysisError, match="SEC001"):
            compiler.compile(self._pipeline())

    def test_gate_can_be_disabled(self, monkeypatch):
        from repro.core import compiler as compiler_module
        from repro.core.compiler import EverestCompiler

        def exploding(*_args, **_kwargs):
            raise AssertionError("gate ran despite static_checks=False")

        monkeypatch.setattr(
            compiler_module, "analyze_module_cached", exploding
        )
        compiler = EverestCompiler(
            emit_artifacts=False, static_checks=False
        )
        app = compiler.compile(self._pipeline())
        assert app.package is not None


class TestGateBlocksFixtureModules:
    """The pre-DSE gate rejects the true-positive lint fixtures.

    Same functions the compiler's ``static-checks`` span runs:
    ``analyze_module_cached`` then ``raise_if_errors`` — so a module
    that fails ``repro lint`` can never reach exploration either.
    """

    @pytest.mark.parametrize(
        "fixture,code",
        [
            ("oob_access.ir", "MEM004"),
            ("dead_branch.ir", "LINT004"),
            ("deep_index_chain.ir", "MEM001"),
            ("zero_step_loop.ir", "MEM001"),
            ("mixed_affine_access.ir", "PERF001"),
        ],
    )
    def test_fixture_module_raises_analysis_error(self, fixture, code):
        import os

        from repro.core.analysis import (
            analyze_module_cached,
            raise_if_errors,
        )
        from repro.core.ir.parser import parse_module

        path = os.path.join(
            os.path.dirname(__file__), "fixtures", fixture)
        with open(path, "r", encoding="utf-8") as handle:
            module = parse_module(handle.read())
        diagnostics, _facts, _hit = analyze_module_cached(module)
        with pytest.raises(AnalysisError, match=code):
            raise_if_errors(diagnostics, AnalysisError)

    def test_mismatched_pipeline_edge_never_reaches_dse(self):
        from repro.core.compiler import EverestCompiler
        from repro.core.dsl.workflow import Pipeline
        from repro.core.ir.types import TensorType
        from repro.errors import SpecificationError

        pipeline = Pipeline("app")
        wrong = pipeline.source("raw", TensorType((16,), F32))
        pipeline.task("t", SRC, inputs=[wrong], kernel="f")
        with pytest.raises(SpecificationError, match="WF010"):
            EverestCompiler(emit_artifacts=False).compile(pipeline)
