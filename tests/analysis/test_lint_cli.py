"""`python -m repro lint` behavior: exit codes, formats, suppression."""

import json
import os
import time

import pytest

from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
EXAMPLES = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples"
)

CLEAN_KERNEL = """
kernel smooth(X: tensor<16xf32>) -> tensor<16xf32> {
  Y = relu(X)
  return Y
}
"""


def run_lint(*argv):
    return main(["lint", *argv])


class TestExitCodes:
    def test_shipped_examples_are_clean(self, capsys):
        assert run_lint(EXAMPLES) == 0
        out = capsys.readouterr().out
        assert "lint:" in out

    def test_clean_edsl_exits_zero(self, tmp_path, capsys):
        spec = tmp_path / "k.edsl"
        spec.write_text(CLEAN_KERNEL)
        assert run_lint(str(spec)) == 0

    @pytest.mark.parametrize(
        "fixture,code",
        [
            ("cycle.json", "WF001"),
            ("unproducible.json", "WF002"),
            ("overcapacity.json", "WF003"),
            ("dup_output.json", "WF004"),
            ("oob_access.ir", "MEM004"),
            ("dead_branch.ir", "LINT004"),
            ("shape_mismatch.json", "WF010"),
            ("deep_index_chain.ir", "MEM001"),
            ("zero_step_loop.ir", "IR002"),
            ("mixed_affine_access.ir", "MEM002"),
            ("update_cycle.json", "WF001"),
            ("update_unproducible.json", "WF002"),
            ("cycle_order_sensitive.json", "WF001"),
        ],
    )
    def test_defect_fixture_exits_one_with_json(
        self, capsys, fixture, code
    ):
        path = os.path.join(FIXTURES, fixture)
        assert run_lint(path, "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        codes = {item["code"] for item in payload["diagnostics"]}
        assert code in codes
        assert payload["counts"]["error"] >= 1
        # a crash inside one analysis must never stand in for findings
        assert not any(
            item["message"].startswith("cannot lint target")
            for item in payload["diagnostics"]
        )

    @pytest.mark.parametrize(
        "fixture,malformed,findings",
        [
            ("malformed_entries.json",
             ["malformed-entries/tasks[0]", "malformed-entries/tasks[1]"],
             {"WF001"}),
            ("malformed_sections.json",
             ["workflow/resources", "workflow/tasks",
              "workflow/workers[0]"],
             set()),
            ("malformed_acquires.json",
             ["malformed-acquires/resources[1]",
              "malformed-acquires/tasks[0]"],
             {"DL002", "RACE001"}),
        ],
    )
    def test_malformed_entries_exit_two_and_keep_the_findings(
        self, capsys, fixture, malformed, findings
    ):
        path = os.path.join(FIXTURES, fixture)
        assert run_lint(path, "--format", "json") == 2
        items = json.loads(capsys.readouterr().out)["diagnostics"]
        loader = [item for item in items if item["code"] == "DSL001"]
        # one per malformed entry, however many analyses read the spec
        assert [item["anchor"] for item in loader] == malformed
        assert {item["analysis"] for item in loader} == {"loader"}
        # the well-formed entries are still linted
        assert {item["code"] for item in items} - {"DSL001"} == findings
        # and the message names a field, not a Python exception
        assert not any(
            fragment in item["message"] for item in items
            for fragment in ("cannot lint target", "has no attribute",
                             "out of range")
        )

    def test_unloadable_spec_exits_two(self, capsys):
        path = os.path.join(FIXTURES, "bad_kernel.edsl")
        assert run_lint(path, "--format", "json") == 2
        payload = json.loads(capsys.readouterr().out)
        codes = {item["code"] for item in payload["diagnostics"]}
        assert codes == {"DSL001"}

    def test_missing_path_exits_two(self, capsys):
        assert run_lint("/no/such/spec.edsl") == 2


class TestMultiTargetRobustness:
    def test_bad_target_does_not_abort_the_run(
        self, tmp_path, capsys
    ):
        # a non-UTF8 blob among good targets: the whole run exits 2,
        # but the remaining targets are still linted
        good = tmp_path / "k.edsl"
        good.write_text(CLEAN_KERNEL)
        blob = tmp_path / "garbage.edsl"
        blob.write_bytes(b"\xff\xfe\x00kernel")
        racy = os.path.join(FIXTURES, "conc_race_ww.json")
        assert run_lint(
            str(blob), str(good), racy, "--format", "json"
        ) == 2
        payload = json.loads(capsys.readouterr().out)
        codes = {item["code"] for item in payload["diagnostics"]}
        assert "DSL001" in codes  # the unreadable blob
        assert "RACE001" in codes  # later target still linted

    def test_loader_failure_outranks_lint_findings(self, capsys):
        bad = os.path.join(FIXTURES, "bad_kernel.edsl")
        racy = os.path.join(FIXTURES, "conc_race_ww.json")
        assert run_lint(racy, bad) == 2

    def test_all_good_targets_keep_code_one(self, tmp_path, capsys):
        good = tmp_path / "k.edsl"
        good.write_text(CLEAN_KERNEL)
        racy = os.path.join(FIXTURES, "conc_race_ww.json")
        assert run_lint(str(good), racy) == 1


class TestOptions:
    def test_suppress_turns_error_into_clean_exit(self, capsys):
        path = os.path.join(FIXTURES, "overcapacity.json")
        assert run_lint(path) == 1
        capsys.readouterr()
        assert run_lint(path, "--suppress", "WF003") == 0

    def test_text_format_mentions_code_and_anchor(self, capsys):
        path = os.path.join(FIXTURES, "cycle.json")
        run_lint(path)
        out = capsys.readouterr().out
        assert "error[WF001]" in out
        assert "cycle" in out

    def test_json_is_machine_readable(self, tmp_path, capsys):
        spec = tmp_path / "k.edsl"
        spec.write_text(CLEAN_KERNEL)
        assert run_lint(str(spec), "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {
            "error": 0, "warning": 0, "note": 0
        }

    def test_dead_branch_fixture_names_both_defects(self, capsys):
        path = os.path.join(FIXTURES, "dead_branch.ir")
        assert run_lint(path) == 1
        out = capsys.readouterr().out
        assert "zero iterations" in out
        assert "always true" in out

    def test_oob_fixture_reports_the_inferred_range(self, capsys):
        path = os.path.join(FIXTURES, "oob_access.ir")
        assert run_lint(path) == 1
        out = capsys.readouterr().out
        assert "[0, 9]" in out and "size 8" in out

    def test_zero_step_fixture_still_reports_the_other_findings(
        self, capsys
    ):
        # the verifier rejects step = 0 (IR002); the analyses read it
        # as 1 and go on to find the off-by-one in the body
        path = os.path.join(FIXTURES, "zero_step_loop.ir")
        assert run_lint(path, "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        codes = sorted(item["code"] for item in payload["diagnostics"])
        assert codes == ["IR002", "MEM001"]

    def test_deep_index_chain_lints_in_linear_time(self, capsys):
        # 40 doubling links: 2**40 paths for an unmemoized recursion
        path = os.path.join(FIXTURES, "deep_index_chain.ir")
        started = time.perf_counter()
        assert run_lint(path) == 1
        assert time.perf_counter() - started < 1.0
        out = capsys.readouterr().out
        assert out.count("MEM001") == 1 and f"[0, {2 ** 40}]" in out

    def test_only_restricts_checks(self, tmp_path, capsys):
        # sensitive arg normally yields a SEC005 warning; --only
        # partition must not run the taint analysis
        spec = tmp_path / "k.edsl"
        spec.write_text("""
kernel score(X: tensor<4xf32> @sensitive) -> tensor<4xf32> {
  Y = relu(X)
  return Y
}
""")
        assert run_lint(
            str(spec), "--format", "json", "--only", "partition"
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["warning"] == 0


class TestRepeatRuns:
    """Lint keeps no state between runs: a second run repeats the
    first's report and exit code, and an edit shows in the next run
    (``test_lint_determinism.py`` holds whole trees byte for byte)."""

    def _tree(self, root):
        root.mkdir(parents=True, exist_ok=True)
        (root / "k.edsl").write_text(CLEAN_KERNEL)
        (root / "nested").mkdir(exist_ok=True)
        (root / "nested" / "m.edsl").write_text(
            CLEAN_KERNEL.replace("smooth", "other"))
        return str(root)

    @pytest.mark.parametrize("fixture,code", [
        ("oob_access.ir", 1), ("cycle.json", 1), ("bad_kernel.edsl", 2),
    ])
    def test_a_second_run_replays_the_exit_code(self, capsys, fixture,
                                                code):
        path = os.path.join(FIXTURES, fixture)
        assert run_lint(path) == code
        first = capsys.readouterr().out
        assert run_lint(path) == code
        assert capsys.readouterr().out == first

    def test_an_edit_shows_in_the_next_run(self, tmp_path, capsys):
        tree = self._tree(tmp_path / "specs")
        run_lint(tree)
        capsys.readouterr()
        (tmp_path / "specs" / "k.edsl").write_text(
            "kernel broken(X: tensor<4xf32> {\n")
        assert run_lint(tree) == 2
        out = capsys.readouterr().out
        assert "DSL001" in out and "k.edsl" in out
        assert "lint: 1 target" in out

    @pytest.mark.parametrize("extra", [
        [], ["--stats"], ["--format", "json"],
    ], ids=["text", "stats", "json"])
    def test_lint_writes_no_cache_file(self, tmp_path, monkeypatch,
                                       capsys, extra):
        home = tmp_path / "home"
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
        monkeypatch.chdir(tmp_path)
        tree = self._tree(tmp_path / "specs")
        before = sorted(tmp_path.rglob("*"))
        assert run_lint(tree, *extra) == 0
        assert sorted(tmp_path.rglob("*")) == before
        assert not home.exists()


class TestStats:
    def test_stats_prints_per_pass_timings(self, tmp_path, capsys):
        spec = tmp_path / "k.edsl"
        spec.write_text(CLEAN_KERNEL)
        assert run_lint(str(spec), "--stats") == 0
        captured = capsys.readouterr()
        assert "analysis passes" in captured.err
        for name in ("analysis:absint", "analysis:taint",
                     "analysis:shapes"):
            assert name in captured.err
        # the table goes to stderr; stdout stays machine-consumable
        assert "analysis passes" not in captured.out

    def test_a_run_without_an_analysis_pass_says_so(self, capsys):
        """A workflow spec runs no traced IR pass."""
        path = os.path.join(FIXTURES, "cycle.json")
        assert run_lint(path, "--stats") == 1
        assert "(no analysis pass ran)" in capsys.readouterr().err
