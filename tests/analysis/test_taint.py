"""Static IFT tests: the secure.* policies checked at compile time."""

from repro.core.analysis import check_module_taint
from repro.core.analysis.dataflow import TaintPropagation
from repro.core.analysis.taint import (
    check_function_taint,
    check_pipeline_taint,
    pipeline_labels,
)
from repro.core.dsl.annotations import SecurityAnnotation, Sensitivity
from repro.core.dsl.workflow import Pipeline
from repro.core.ir.types import F32, MemRefType, TensorType

from tests.analysis.conftest import new_function


def _codes(diagnostics):
    return [item.code for item in diagnostics.sorted()]


class TestReturnPolicy:
    def _leaky(self, module):
        """Kernel that returns an explicitly tainted value."""
        function, b = new_function(module, "leak", [F32], [F32])
        (x,) = function.arguments
        tainted = b.create(
            "secure.taint", [x], [F32], {"label": "pii"}
        ).result
        doubled = b.addf(tainted, tainted)
        b.ret([doubled])
        return function, b, doubled

    def test_policy_violation_flagged_sec001(self, module):
        function, _b, _v = self._leaky(module)
        diagnostics = check_function_taint(function)
        assert _codes(diagnostics) == ["SEC001"]
        finding = diagnostics.errors[0]
        assert "pii" in finding.message
        assert "leak" in finding.anchor

    def test_declassify_makes_it_clean(self, module):
        function, b = new_function(module, "ok", [F32], [F32])
        (x,) = function.arguments
        tainted = b.create(
            "secure.taint", [x], [F32], {"label": "pii"}
        ).result
        doubled = b.addf(tainted, tainted)
        cleared = b.create(
            "secure.declassify", [doubled], [F32]
        ).result
        b.ret([cleared])
        diagnostics = check_function_taint(function)
        assert not diagnostics.has_errors
        assert _codes(diagnostics) == []

    def test_encrypt_makes_it_clean(self, module):
        function, b = new_function(module, "ok", [F32], [F32])
        (x,) = function.arguments
        tainted = b.create(
            "secure.taint", [x], [F32], {"label": "pii"}
        ).result
        sealed = b.create(
            "secure.encrypt", [tainted], [F32],
            {"cipher": "aes128-gcm"},
        ).result
        b.ret([sealed])
        diagnostics = check_function_taint(function)
        assert not diagnostics.has_errors

    def test_dynamic_guard_downgrades_to_note(self, module):
        function, b = new_function(module, "guarded", [F32], [F32])
        (x,) = function.arguments
        tainted = b.create(
            "secure.taint", [x], [F32], {"label": "pii"}
        ).result
        b.create(
            "secure.check", [tainted], [],
            {"policy": "no-unclassified-egress"},
        )
        b.ret([tainted])
        diagnostics = check_function_taint(function)
        assert not diagnostics.has_errors
        assert _codes(diagnostics) == ["SEC003"]

    def test_stable_code_across_runs(self, module):
        function, _b, _v = self._leaky(module)
        first = check_function_taint(function).to_json()
        second = check_function_taint(function).to_json()
        assert first == second


class TestStorePolicy:
    def test_tainted_store_to_argument_memref_sec002(self, module):
        memref = MemRefType((8,), F32)
        function, b = new_function(module, "spill", [F32, memref], [])
        x, out = function.arguments
        tainted = b.create(
            "secure.taint", [x], [F32], {"label": "key"}
        ).result
        zero = b.index_const(0)
        b.store(tainted, out, [zero])
        b.ret([])
        diagnostics = check_function_taint(function)
        assert _codes(diagnostics) == ["SEC002"]
        assert "caller-visible" in diagnostics.errors[0].message

    def test_local_scratch_spill_allowed(self, module):
        memref = MemRefType((8,), F32)
        function, b = new_function(module, "scratch", [F32], [F32])
        (x,) = function.arguments
        tainted = b.create(
            "secure.taint", [x], [F32], {"label": "key"}
        ).result
        local = b.alloc(memref)
        zero = b.index_const(0)
        b.store(tainted, local, [zero])
        cleared = b.create(
            "secure.declassify", [b.load(local, [zero])], [F32]
        ).result
        b.ret([cleared])
        diagnostics = check_function_taint(function)
        assert not diagnostics.has_errors


class TestInstrumentationState:
    def test_sensitive_args_without_instrumentation_warns(self, module):
        function, b = new_function(
            module, "pending", [F32], [F32],
            attributes={"everest.sensitive_args": [0]},
        )
        (x,) = function.arguments
        b.ret([b.addf(x, x)])
        diagnostics = check_function_taint(function)
        # only the SEC005 warning: instrumentation has not run yet,
        # so the hard policies are not enforced
        assert _codes(diagnostics) == ["SEC005"]
        assert not diagnostics.has_errors

    def test_labels_propagate_until_declassified(self, module):
        function, b = new_function(module, "ann", [F32], [F32])
        (x,) = function.arguments
        tainted = b.create(
            "secure.taint", [x], [F32], {"label": "pii"}
        ).result
        doubled = b.addf(tainted, tainted)
        cleared = b.create(
            "secure.declassify", [doubled], [F32]
        ).result
        b.ret([cleared])
        state = TaintPropagation().run(function)
        assert state.get(doubled) == frozenset({"pii"})
        assert state.get(cleared) == frozenset()


class TestPipelineTaint:
    def _pipeline_module(self, sink_sensitivity):
        source_code = """
        kernel ident(X: tensor<4xf32>) -> tensor<4xf32> {
          Y = relu(X)
          return Y
        }
        """
        pipeline = Pipeline("p")
        source = pipeline.source(
            "raw", TensorType((4,), F32),
            security=SecurityAnnotation(
                sensitivity=Sensitivity.SECRET
            ),
        )
        task = pipeline.task(
            "t", source_code, inputs=[source], kernel="ident"
        )
        pipeline.sink("out", task.output(0))
        module = pipeline.to_ir()
        pipeline_op = next(
            op for op in module.body.operations
            if op.name == "workflow.pipeline"
        )
        if sink_sensitivity is not None:
            for op in pipeline_op.regions[0].blocks[0].operations:
                if op.name == "workflow.sink":
                    op.set_attr("sensitivity", sink_sensitivity)
        return module, pipeline_op

    def test_public_sink_receiving_secret_is_sec004(self):
        module, pipeline_op = self._pipeline_module("public")
        diagnostics = check_pipeline_taint(module, pipeline_op)
        assert "SEC004" in _codes(diagnostics)
        assert diagnostics.has_errors

    def test_unannotated_sink_is_note_only(self):
        module, pipeline_op = self._pipeline_module(None)
        diagnostics = check_pipeline_taint(module, pipeline_op)
        assert not diagnostics.has_errors
        assert "SEC003" in _codes(diagnostics)

    def test_module_level_entry_point(self):
        module, _pipeline_op = self._pipeline_module("public")
        diagnostics = check_module_taint(module)
        assert "SEC004" in _codes(diagnostics)


class TestSensitiveArgs:
    """The compiler marks ``everest.sensitive_args`` from the label map
    :func:`pipeline_labels` computes (values pinned from the build that
    still walked the pipeline a second time)."""

    CHAIN = """
    kernel lift(X: tensor<8xf32>) -> tensor<8xf32> {
      Y = relu(X)
      return Y
    }
    kernel mix(X: tensor<8xf32>, Y: tensor<8xf32>) -> tensor<8xf32> {
      Z = X + Y
      return Z
    }
    """

    @staticmethod
    def _compile(pipeline):
        from repro.core.compiler import EverestCompiler
        from repro.core.dse.space import DesignSpace

        space = DesignSpace(targets=("cpu",), threads=(1,))
        app = EverestCompiler(
            space=space, emit_artifacts=False).compile(pipeline)
        marked = {
            function.name: function.op.attr("everest.sensitive_args")
            for function in app.module.functions()
        }
        return app, marked

    def test_secure_pipeline_example(self):
        import importlib.util
        from pathlib import Path

        path = (Path(__file__).resolve().parents[2] / "examples"
                / "secure_pipeline.py")
        spec = importlib.util.spec_from_file_location(
            "secure_pipeline", path)
        example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(example)
        pipeline = Pipeline("vitals")
        vitals = pipeline.source(
            "vitals", TensorType((256,), F32),
            security=SecurityAnnotation(
                sensitivity=Sensitivity.SECRET, encrypt_in_transit=True),
        )
        baseline = pipeline.source("baseline", TensorType((256,), F32))
        weights = pipeline.source("weights", TensorType((256,), F32))
        clean = pipeline.task(
            "detrend", example.KERNELS, inputs=[vitals, baseline])
        score = pipeline.task("classify", example.KERNELS,
                              inputs=[clean.output(0), weights])
        pipeline.sink("risk-score", score.output(0))
        app, marked = self._compile(pipeline)
        assert app.sensitive_kernels == {"detrend", "classify"}
        assert marked == {"detrend": [0], "classify": [0]}

    def test_two_hop_chain(self):
        pipeline = Pipeline("chain")
        secret = pipeline.source(
            "secret", TensorType((8,), F32),
            security=SecurityAnnotation(
                sensitivity=Sensitivity.CONFIDENTIAL),
        )
        public = pipeline.source("public", TensorType((8,), F32))
        a = pipeline.task("a", self.CHAIN, inputs=[secret], kernel="lift")
        b = pipeline.task("b", self.CHAIN, inputs=[public, a.output(0)],
                          kernel="mix")
        c = pipeline.task("c", self.CHAIN, inputs=[b.output(0), public],
                          kernel="mix")
        d = pipeline.task("d", self.CHAIN, inputs=[public], kernel="lift")
        pipeline.sink("out", c.output(0))
        pipeline.sink("side", d.output(0))
        app, marked = self._compile(pipeline)
        assert app.sensitive_kernels == {"lift", "mix"}
        # mix is tainted at argument 1 by task b and at 0 by task c
        assert marked == {"lift": [0], "mix": [0, 1]}
        pipeline_op = next(
            op for op in app.module.body.operations
            if op.name == "workflow.pipeline"
        )
        labels = pipeline_labels(pipeline_op)
        tasks = {
            op.attr("sym_name"): op
            for op in pipeline_op.regions[0].blocks[0].operations
            if op.name == "workflow.task"
        }
        for name in "abc":
            assert labels[id(tasks[name].results[0])] == frozenset(
                {"secret:confidential"})
        assert id(tasks["d"].results[0]) not in labels
