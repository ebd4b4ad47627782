"""Tests for SYCL generation, artifacts, packaging and the compiler."""

import json
import re

import pytest

from repro.core.backend.binary import Artifact, SoftwareBinary
from repro.core.backend.packaging import VariantPackage
from repro.core.backend.sycl_gen import generate_sycl
from repro.core.compiler import EverestCompiler
from repro.core.dse.space import DesignSpace
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.dsl.workflow import Pipeline
from repro.core.dsl.annotations import (
    SecurityAnnotation,
    Sensitivity,
)
from repro.core.frontend import (
    export_model,
    import_model_json,
)
from repro.core.ir import (
    F32,
    I32,
    INDEX,
    FunctionType,
    Module,
    TensorType,
)
from repro.core.ir.builder import Builder
from repro.core.ir.interp import run_function
from repro.core.ir.passes import (
    LowerTensorPass,
    PassManager,
    SecurityInstrumentationPass,
)
from repro.core.variants import CostEstimate, Variant, VariantKnobs
from repro.errors import BackendError, SpecificationError

KERNEL = """
kernel axpy(A: tensor<64xf32>, B: tensor<64xf32>, s: f32)
        -> tensor<64xf32> {
  C = A * s + B
  return C
}
"""


def lowered_module(src=KERNEL, secure=False):
    module = compile_kernel(src)
    manager = PassManager()
    if secure:
        manager.add(SecurityInstrumentationPass())
    manager.add(LowerTensorPass())
    manager.run(module)
    return module


class TestSyclGen:
    def test_tensor_form_rejected(self):
        module = compile_kernel(KERNEL)
        with pytest.raises(BackendError, match="tensor form"):
            generate_sycl(module, "axpy")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(BackendError):
            generate_sycl(lowered_module(), "ghost")

    def test_structure(self):
        text = generate_sycl(lowered_module(), "axpy")
        assert "#include <sycl/sycl.hpp>" in text
        assert "void axpy(sycl::queue &q" in text
        assert "parallel_for" in text
        assert text.count("{") == text.count("}")

    def test_pointer_parameters(self):
        text = generate_sycl(lowered_module(), "axpy")
        assert "float* " in text
        assert "float v" in text  # the scalar s parameter

    MATMUL = """
    kernel mm(A: tensor<4x8xf32>, B: tensor<8x2xf32>) -> tensor<4x2xf32> {
      C = A @ B
      return C
    }
    """

    def test_inner_loops_stay_sequential(self):
        text = generate_sycl(lowered_module(self.MATMUL), "mm")
        assert text.count("parallel_for") == 1
        assert "for (size_t" in text

    def test_row_major_flattening(self):
        text = generate_sycl(lowered_module(self.MATMUL), "mm")
        assert "* 8" in text  # A row stride

    def test_secure_ops_rendered(self):
        module = lowered_module("""
        kernel s(A: tensor<8xf32> @sensitive) -> tensor<8xf32> {
          B = relu(A)
          return B
        }
        """, secure=True)
        text = generate_sycl(module, "s")
        assert "// taint" in text
        assert "dift_check" in text


    @staticmethod
    def _divi_module(operand_type):
        module = Module("m")
        function = module.add_function(
            "f", FunctionType((operand_type, operand_type),
                              (operand_type,)))
        builder = Builder(function.entry_block)
        builder.ret([builder._binary("kernel.divi", *function.arguments)])
        return module

    def test_signed_integer_division_floors_like_the_interpreter(self):
        # C++ ``/`` truncates (-7 / 2 == -3); kernel.divi floors (-4)
        module = self._divi_module(I32)
        line, = [line for line in generate_sycl(module, "f").splitlines()
                 if line.strip().startswith("auto v2 =")]
        expression = line.split("=", 1)[1].rstrip(";")
        assert expression.strip() != "v0 / v1"
        # run the emitted expression under C++ integer semantics
        python = re.sub(r"(\w+) / (\w+)", r"trunc_div(\1, \2)", expression)
        python = re.sub(r"(\w+) % (\w+)", r"trunc_mod(\1, \2)", python)
        python = python.replace("&&", " and ")

        def trunc_div(a, b):
            return int(a / b)

        for v0 in range(-9, 10):
            for v1 in (-4, -3, -1, 1, 2, 5):
                emitted = eval(python, {
                    "v0": v0, "v1": v1, "trunc_div": trunc_div,
                    "trunc_mod": lambda a, b: a - b * trunc_div(a, b),
                })
                assert emitted == run_function(module, "f", v0, v1)[0], \
                    (v0, v1)
        # size_t operands cannot be negative: plain ``/`` already floors
        assert "auto v2 = v0 / v1;" in generate_sycl(
            self._divi_module(INDEX), "f")


class TestArtifacts:
    def test_software_binary_checksum_stable(self):
        a = SoftwareBinary("n", "x86", "int main(){}")
        b = SoftwareBinary("n", "x86", "int main(){}")
        assert a.checksum == b.checksum

    def test_checksum_changes_with_source(self):
        a = SoftwareBinary("n", "x86", "int main(){}")
        b = SoftwareBinary("n", "x86", "int main(){return 1;}")
        assert a.checksum != b.checksum

    def test_unsupported_arch(self):
        with pytest.raises(ValueError):
            SoftwareBinary("n", "sparc", "")

    def test_sign_and_verify(self):
        artifact = Artifact(
            variant_id=1, kind="binary",
            payload=SoftwareBinary("n", "x86", "code"),
        )
        artifact.sign("key")
        assert artifact.verify("key")
        assert not artifact.verify("wrong-key")

    def test_unsigned_never_verifies(self):
        artifact = Artifact(
            variant_id=1, kind="binary",
            payload=SoftwareBinary("n", "x86", "code"),
        )
        assert not artifact.verify("key")


class TestVariantPackage:
    def make_variant(self):
        return Variant(
            kernel="k", knobs=VariantKnobs(),
            cost=CostEstimate(latency_s=1.0, energy_j=1.0),
        )

    def test_manifest_roundtrip(self):
        package = VariantPackage("app")
        package.add_variant(self.make_variant())
        package.add_variant(self.make_variant())
        payload = json.loads(package.manifest())
        assert payload["application"] == "app"
        assert {kernel: len(variants) for kernel, variants
                in payload["kernels"].items()} == {"k": 2}

    def test_unknown_kernel_query(self):
        package = VariantPackage("app")
        with pytest.raises(BackendError):
            package.variants_for("ghost")

    def test_signing_on_add(self):
        package = VariantPackage("app", signing_key="secret")
        variant = self.make_variant()
        artifact = Artifact(
            variant_id=variant.variant_id, kind="binary",
            payload=SoftwareBinary("n", "x86", "code"),
        )
        package.add_variant(variant, artifact)
        assert package.verify_integrity()


class TestModelImport:
    def test_import_generates_valid_dsl(self):
        text = export_model("net", 8, 4, [
            {"type": "dense", "units": 2, "activation": "relu"},
        ])
        imported = import_model_json(text)
        module = compile_kernel(imported.dsl_source)
        function = module.find_function("net")
        assert function is not None
        assert [str(t) for t in function.type.inputs] == [
            "tensor<8x4xf32>", "tensor<4x2xf32>", "tensor<8x2xf32>"]

    def test_scale_and_activation_layers(self):
        imported = import_model_json(export_model("m", 4, 4, [
            {"type": "scale", "factor": 2.0},
            {"type": "activation", "activation": "tanh"},
        ]))
        compile_kernel(imported.dsl_source)

    def test_malformed_json(self):
        with pytest.raises(SpecificationError):
            import_model_json("{not json")

    def test_missing_fields(self):
        with pytest.raises(SpecificationError):
            import_model_json("{}")

    def test_unknown_layer_type(self):
        with pytest.raises(SpecificationError):
            import_model_json(export_model("m", 4, 4, [
                {"type": "capsule"},
            ]))

    def test_unknown_activation(self):
        with pytest.raises(SpecificationError):
            import_model_json(export_model("m", 4, 4, [
                {"type": "dense", "units": 2, "activation": "swish"},
            ]))


class TestEverestCompiler:
    def build_pipeline(self, sensitive=False):
        pipeline = Pipeline("app")
        security = SecurityAnnotation(
            sensitivity=Sensitivity.CONFIDENTIAL
        ) if sensitive else None
        a = pipeline.source("a", TensorType((64,), F32),
                            security=security)
        b = pipeline.source("b", TensorType((64,), F32))
        task = pipeline.task("scale", """
        kernel scale(A: tensor<64xf32>, B: tensor<64xf32>)
                -> tensor<64xf32> {
          C = exp(A) * B
          return C
        }
        """, inputs=[a, b])
        pipeline.sink("out", task.output(0))
        return pipeline

    def test_compile_produces_variants(self):
        app = EverestCompiler(space=DesignSpace.small()).compile(
            self.build_pipeline()
        )
        assert "scale" in app.exploration
        assert app.package.variants_for("scale")
        assert app.package.verify_integrity()

    def test_sensitivity_forces_dift(self):
        app = EverestCompiler(space=DesignSpace.small()).compile(
            self.build_pipeline(sensitive=True)
        )
        assert "scale" in app.sensitive_kernels
        assert all(
            v.knobs.dift for v in app.package.variants_for("scale")
        )
        function = app.module.find_function("scale")
        assert function.op.attr("everest.sensitive_args") == [0]

    def test_module_records_no_target_verdict(self):
        """Every target is priced and the runtime picks per invocation:
        the compiled module carries no cpu/fpga decision."""
        app = EverestCompiler(space=DesignSpace.small()).compile(
            self.build_pipeline()
        )
        ops = list(app.module.walk())
        assert not [op for op in ops if op.name == "hw.accelerator"]
        assert not [op.name for op in ops if "target" in op.attributes]

    def test_artifact_kinds_match_targets(self):
        app = EverestCompiler(space=DesignSpace.small()).compile(
            self.build_pipeline()
        )
        for variant in app.package.variants_for("scale"):
            artifact = app.package.artifact_for(variant)
            assert artifact is not None
            expected = (
                "bitstream" if variant.is_hardware else "binary"
            )
            assert artifact.kind == expected

    def test_summary_text(self):
        app = EverestCompiler(space=DesignSpace.small()).compile(
            self.build_pipeline()
        )
        assert "scale" in app.summary()
