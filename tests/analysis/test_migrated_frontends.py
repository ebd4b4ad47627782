"""The verifier and typechecker now report through diagnostics."""

import pytest

from repro.core.dsl.parser import parse
from repro.core.dsl.typecheck import check_program
from repro.core.ir.types import F32
from repro.core.ir.verifier import verify, verify_diagnostics
from repro.errors import TypeCheckError, VerificationError

from tests.analysis.conftest import new_function


class TestVerifierDiagnostics:
    def _missing_terminator(self, module):
        function, b = new_function(module, "f", [F32], [F32])
        b.mulf(function.arguments[0], function.arguments[0])
        return module

    def test_fail_fast_message_carries_code(self, module):
        self._missing_terminator(module)
        with pytest.raises(VerificationError, match=r"IR005"):
            verify(module)
        with pytest.raises(
            VerificationError, match="block must end with"
        ):
            verify(module)

    def test_raised_error_carries_collection(self, module):
        self._missing_terminator(module)
        try:
            verify(module)
        except VerificationError as exc:
            assert exc.diagnostics.has_errors
        else:
            pytest.fail("expected VerificationError")

    def test_collect_mode_finds_multiple_defects(self, module):
        # two independent functions, each missing its terminator
        for name in ("f", "g"):
            function, b = new_function(module, name, [F32], [F32])
            b.mulf(function.arguments[0], function.arguments[0])
        diagnostics = verify_diagnostics(module)
        assert len(diagnostics.errors) == 2
        assert {item.code for item in diagnostics} == {"IR005"}

    def test_clean_module_collects_nothing(self, module):
        function, b = new_function(module, "f", [F32], [F32])
        b.ret([function.arguments[0]])
        assert not verify_diagnostics(module)


class TestTypecheckDiagnostics:
    def test_raise_mode_keeps_line_prefix_and_code(self):
        program = parse("""
kernel k(A: tensor<4xf32>) -> tensor<4xf32> {
  return missing
}
""")
        with pytest.raises(TypeCheckError, match="undefined") as info:
            check_program(program)
        assert getattr(info.value, "code") == "TY001"
        assert "line " in str(info.value)

    def test_declaration_errors_are_ty002(self):
        program = parse("""
kernel k(A: tensor<4xf32>, A: tensor<4xf32>) -> tensor<4xf32> {
  return A
}
""")
        with pytest.raises(TypeCheckError) as info:
            check_program(program)
        assert getattr(info.value, "code") == "TY002"
