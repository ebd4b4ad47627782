"""Print → parse → print round-trip tests for the textual IR."""

import numpy as np
import pytest

from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.ir import parse_module, print_module, verify
from repro.core.ir.interp import Interpreter
from repro.core.ir.passes import (
    ElementwiseFusionPass,
    LoopDirectivesPass,
    LowerTensorPass,
    PassManager,
    SecurityInstrumentationPass,
    TilingPass,
)
from repro.errors import ParseError

SOURCES = {
    "tensor-form": """
    kernel net(X: tensor<8x4xf32>, W: tensor<4x2xf32>)
            -> tensor<8x2xf32> {
      Y = sigmoid(X @ W)
      return Y
    }
    """,
    "multi-kernel": """
    kernel a(X: tensor<8xf32>) -> tensor<8xf32> {
      Y = relu(X)
      return Y
    }
    kernel b(X: tensor<8xf32>, s: f32) -> tensor<8xf32> {
      Y = X * s + 1.0
      return Y
    }
    """,
    "secure": """
    kernel s(X: tensor<16xf32> @sensitive) -> tensor<16xf32> {
      Y = exp(X)
      return Y
    }
    """,
}


def lowered(source: str, secure: bool = False):
    module = compile_kernel(source)
    manager = PassManager()
    manager.add(ElementwiseFusionPass())
    if secure:
        manager.add(SecurityInstrumentationPass())
    manager.add(TilingPass(tile_sizes=(8, 2, 4)))
    manager.add(LowerTensorPass())
    manager.add(LoopDirectivesPass(unroll_factor=2))
    manager.run(module)
    return module


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_tensor_form_fixed_point(self, name):
        module = compile_kernel(SOURCES[name])
        text1 = print_module(module)
        module2 = parse_module(text1)
        verify(module2)
        assert print_module(module2) == text1

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_kernel_form_fixed_point(self, name):
        module = lowered(SOURCES[name], secure=(name == "secure"))
        text1 = print_module(module)
        module2 = parse_module(text1)
        verify(module2)
        assert print_module(module2) == text1

    def test_parsed_module_executes(self, rng):
        module = lowered(SOURCES["tensor-form"])
        reparsed = parse_module(print_module(module))
        x = rng.normal(size=(8, 4)).astype(np.float32)
        w = rng.normal(size=(4, 2)).astype(np.float32)
        out_a = np.zeros((8, 2), np.float32)
        out_b = np.zeros((8, 2), np.float32)
        Interpreter(module).run("net", x, w, out_a)
        Interpreter(reparsed).run("net", x, w, out_b)
        assert np.allclose(out_a, out_b)

    def test_workflow_pipeline_roundtrip(self):
        from repro.core.dsl.workflow import Pipeline
        from repro.core.ir import F32, TensorType

        pipeline = Pipeline("demo")
        source = pipeline.source("raw", TensorType((8,), F32))
        task = pipeline.task("a", SOURCES["multi-kernel"],
                             inputs=[source])
        pipeline.sink("out", task.output(0))
        module = pipeline.to_ir()
        text1 = print_module(module)
        module2 = parse_module(text1)
        verify(module2)
        assert print_module(module2) == text1


class TestParserErrors:
    def test_undefined_value(self):
        text = """builtin.module @m {
  func.func @f () -> () {
    kernel.store(%99, %98)
    func.return
  }
}"""
        with pytest.raises(ParseError, match="undefined"):
            parse_module(text)

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_module("builtin.module @m { $$$ }")

    def test_attr_types_preserved(self):
        module = lowered(SOURCES["tensor-form"])
        reparsed = parse_module(print_module(module))
        loop = next(
            op for op in reparsed.walk() if op.name == "kernel.for"
        )
        assert isinstance(loop.attr("lower"), int)
        assert isinstance(loop.attr("step"), int)
