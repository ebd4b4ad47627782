"""Tests for the unified diagnostics layer."""

import json

import pytest

from repro.diagnostics import (
    CODES,
    Diagnostics,
    Severity,
    raise_if_errors,
)
from repro.errors import AnalysisError


class TestRegistry:
    def test_all_codes_described(self):
        for code, description in CODES.items():
            assert description, code

    def test_code_families_present(self):
        families = {code[:2] for code in CODES}
        assert {"IR", "TY", "SE", "ME", "LI", "WF", "PM", "DS"} <= families

    def test_unregistered_code_rejected(self):
        with pytest.raises(ValueError, match="unregistered"):
            Diagnostics().error("XX999", "nope")


class TestCollection:
    def test_shorthands_set_severity(self):
        diagnostics = Diagnostics()
        diagnostics.error("IR001", "a")
        diagnostics.warning("LINT001", "b")
        diagnostics.note("SEC003", "c")
        assert [item.severity for item in diagnostics] == [
            Severity.ERROR, Severity.WARNING, Severity.NOTE,
        ]
        assert diagnostics.has_errors
        assert len(diagnostics.errors) == 1
        assert len(diagnostics.by_severity(Severity.WARNING)) == 1

    def test_sorted_orders_by_severity_then_code(self):
        diagnostics = Diagnostics()
        diagnostics.note("SEC003", "last")
        diagnostics.error("WF001", "second")
        diagnostics.error("IR003", "first")
        codes = [item.code for item in diagnostics.sorted()]
        assert codes == ["IR003", "WF001", "SEC003"]

    def test_suppress_drops_codes(self):
        diagnostics = Diagnostics()
        diagnostics.error("IR001", "kept")
        diagnostics.warning("LINT001", "dropped")
        kept = diagnostics.suppress(["LINT001"])
        assert [item.code for item in kept] == ["IR001"]
        # original untouched
        assert len(diagnostics) == 2

    def test_render_text_counts(self):
        diagnostics = Diagnostics()
        diagnostics.error("IR001", "boom", anchor="func.func")
        text = diagnostics.render_text("header")
        assert "header" in text
        assert "error[IR001] @ func.func: boom" in text
        assert "1 error" in text

    def test_render_clean(self):
        assert "clean" in Diagnostics().render_text()

    def test_json_stable_and_parseable(self):
        diagnostics = Diagnostics()
        diagnostics.error("WF002", "m", anchor="wf/t", analysis="dag-lint")
        payload = json.loads(diagnostics.to_json())
        assert payload["counts"]["error"] == 1
        entry = payload["diagnostics"][0]
        assert entry["code"] == "WF002"
        assert entry["anchor"] == "wf/t"
        # two renders are byte-identical
        assert diagnostics.to_json() == diagnostics.to_json()

    def test_loc_rendered(self):
        diagnostics = Diagnostics()
        item = diagnostics.error("TY001", "bad", loc=("k.edsl", 3))
        assert "(k.edsl:3)" in item.render()
        assert json.loads(diagnostics.to_json())["diagnostics"][0][
            "line"] == 3


class TestRaiseIfErrors:
    def test_raises_with_attached_collection(self):
        diagnostics = Diagnostics()
        diagnostics.error("SEC001", "leak")
        with pytest.raises(AnalysisError, match="SEC001"):
            raise_if_errors(diagnostics, AnalysisError)
        try:
            raise_if_errors(diagnostics, AnalysisError)
        except AnalysisError as exc:
            assert exc.diagnostics is diagnostics

    def test_no_errors_no_raise(self):
        diagnostics = Diagnostics()
        diagnostics.warning("LINT001", "meh")
        raise_if_errors(diagnostics, AnalysisError)
