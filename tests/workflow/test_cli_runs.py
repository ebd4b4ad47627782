"""CLI surface of durable runs: --journal-dir/--resume and `repro runs`.

Exercises the full kill/resume round trip the way a user would drive
it: a journaled `repro chaos` run, a simulated crash (journal
truncated at a record boundary and mid-record), `repro chaos --resume`
reproducing the original digest, and the `repro runs list|show|gc`
store management commands.
"""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.driver import run_traced
from repro.workflow.journal import JOURNAL_FILE
from repro.workflow.runstore import META_FILE, RunStore

from tests import goldens


ROOT = Path(__file__).parents[2]
#: A finished ``repro run examples/quickstart.py --run-id r``, recorded
#: while ``repro run`` still took ``--workers`` / ``--workers-mode``:
#: its recipe holds ``workers: 1`` and ``workers_mode: "thread"``.
POOL_RECIPE_RUNS = ROOT / "tests" / "workflow" / "fixtures" / "run_pool_recipe"


def chaos_args(journal_dir, *extra):
    return [
        "chaos", "--graph-seed", "2", "--fault-seed", "1",
        "--tasks", "9", "--journal-dir", str(journal_dir), *extra,
    ]


def digest_of(output: str) -> str:
    match = re.search(r"trace digest\s+([0-9a-f]{16})", output)
    assert match, f"no digest in output:\n{output}"
    return match.group(1)


def truncate(journal_path, keep_lines: int, torn_bytes: int = 0):
    """Crash simulation: keep a prefix, optionally tear the next line."""
    lines = journal_path.read_bytes().splitlines(keepends=True)
    raw = b"".join(lines[:keep_lines])
    if torn_bytes:
        raw += lines[keep_lines][:torn_bytes]
    journal_path.write_bytes(raw)


class TestDurableCLI:
    def test_kill_and_resume_round_trip(self, tmp_path, capsys):
        assert main(chaos_args(tmp_path, "--run-id", "victim")) == 0
        expected = digest_of(capsys.readouterr().out)

        journal = tmp_path / "victim" / JOURNAL_FILE
        total = len(journal.read_bytes().splitlines())
        truncate(journal, total // 3)

        assert main(["chaos", "--resume", "victim",
                     "--journal-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert digest_of(out) == expected
        assert "run id: victim" in out

        meta = RunStore(tmp_path).load_meta("victim")
        assert meta["attempts"] == 2
        assert (tmp_path / "victim" / "archive-1" / JOURNAL_FILE).exists()

    def test_resume_with_torn_tail(self, tmp_path, capsys):
        assert main(chaos_args(tmp_path, "--run-id", "torn")) == 0
        expected = digest_of(capsys.readouterr().out)
        journal = tmp_path / "torn" / JOURNAL_FILE
        total = len(journal.read_bytes().splitlines())
        truncate(journal, total // 2, torn_bytes=11)
        assert main(["chaos", "--resume", "torn",
                     "--journal-dir", str(tmp_path)]) == 0
        assert digest_of(capsys.readouterr().out) == expected

    def test_resume_complete_run_short_circuits(self, tmp_path, capsys):
        assert main(chaos_args(tmp_path, "--run-id", "done")) == 0
        expected = digest_of(capsys.readouterr().out)
        assert main(["chaos", "--resume", "done",
                     "--journal-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "already complete" in out
        assert expected in out
        # no re-execution happened: still attempt 1, nothing archived
        assert RunStore(tmp_path).load_meta("done")["attempts"] == 1

    def test_resume_ignores_conflicting_seed_flags(self, tmp_path,
                                                   capsys):
        """--resume reloads the recorded recipe; stray seed flags on
        the resume invocation must not change what re-executes."""
        assert main(chaos_args(tmp_path, "--run-id", "pinned")) == 0
        expected = digest_of(capsys.readouterr().out)
        journal = tmp_path / "pinned" / JOURNAL_FILE
        truncate(journal, 5)
        assert main(["chaos", "--graph-seed", "7", "--fault-seed", "9",
                     "--tasks", "3", "--resume", "pinned",
                     "--journal-dir", str(tmp_path)]) == 0
        assert digest_of(capsys.readouterr().out) == expected

    def test_reused_run_id_resumes_the_same_recipe_only(self, tmp_path,
                                                        capsys):
        """``--run-id`` naming a run the store holds: the same recipe
        resumes it (a finished one reports "already complete"),
        another recipe is WF009 and leaves the run untouched."""
        assert main(chaos_args(tmp_path, "--run-id", "again")) == 0
        expected = digest_of(capsys.readouterr().out)
        truncate(tmp_path / "again" / JOURNAL_FILE, 5)
        assert main(chaos_args(tmp_path, "--run-id", "again")) == 0
        assert digest_of(capsys.readouterr().out) == expected
        assert main(chaos_args(tmp_path, "--run-id", "again")) == 0
        assert f"run again already complete: trace digest {expected}" in (
            capsys.readouterr().out
        )
        assert main(chaos_args(tmp_path, "--run-id", "again",
                               "--tasks", "5")) == 2
        assert "repro chaos: error: WF009: run 'again'" in (
            capsys.readouterr().err
        )
        assert RunStore(tmp_path).load_meta("again")["attempts"] == 2

    def test_runs_list_show_gc(self, tmp_path, capsys):
        assert main(chaos_args(tmp_path, "--run-id", "complete")) == 0
        assert main(chaos_args(tmp_path, "--run-id", "crashed")) == 0
        capsys.readouterr()
        truncate(tmp_path / "crashed" / JOURNAL_FILE, 10)

        assert main(["runs", "list",
                     "--journal-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "complete" in out and "crashed" in out
        assert "in-flight" in out

        assert main(["runs", "show", "complete",
                     "--journal-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "recipe: graph_seed" in out
        assert "journal records" in out

        # default gc keeps the resumable run
        assert main(["runs", "gc",
                     "--journal-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "complete" in out and "crashed" not in out
        assert (tmp_path / "crashed").exists()
        assert not (tmp_path / "complete").exists()

        assert main(["runs", "gc", "--all",
                     "--journal-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert not (tmp_path / "crashed").exists()

    def test_runs_show_requires_run_id(self, tmp_path, capsys):
        assert main(["runs", "show",
                     "--journal-dir", str(tmp_path)]) == 2
        assert "repro runs: error: no run id given" in (
            capsys.readouterr().err
        )

    def test_resume_unknown_run_fails(self, tmp_path, capsys):
        assert main(["chaos", "--resume", "ghost",
                     "--journal-dir", str(tmp_path)]) == 2
        assert "repro chaos: error: unknown run 'ghost'" in (
            capsys.readouterr().err
        )

    def test_chaos_json_mode_omits_run_id_line(self, tmp_path, capsys):
        assert main(chaos_args(tmp_path, "--run-id", "quiet",
                               "--json")) == 0
        out = capsys.readouterr().out
        assert "run id" not in out
        assert out.lstrip().startswith("{")


def quickstart_trace():
    """This build's trace of the run ``run_pool_recipe`` recorded."""
    return run_traced(str(ROOT / "examples" / "quickstart.py")).report.trace


@goldens.suite("runs", ["run_pool_recipe"])
def quickstart_run(key):
    return quickstart_trace().to_dict()


class TestRunRecordedWithRetiredKeys:
    """A recorded recipe key ``repro run`` no longer records does not
    block resuming the run; a recipe flag that differs still does."""

    @pytest.fixture(scope="class")
    def trace(self):
        trace = quickstart_trace()
        goldens.check("runs", "run_pool_recipe", trace.to_dict())
        return trace

    @pytest.fixture
    def runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(ROOT)  # the recipe names its spec relatively
        copy = tmp_path / "runs"
        shutil.copytree(POOL_RECIPE_RUNS, copy)
        recipe = RunStore(copy).load_meta("r")["meta"]
        assert {"workers", "workers_mode", "strategy"} <= set(recipe)
        return copy

    @pytest.mark.parametrize("killed", [False, True],
                             ids=["finished", "killed"])
    @pytest.mark.parametrize("how", ["--run-id", "--resume"])
    def test_it_resumes(self, runs, trace, capsys, how, killed):
        journal = runs / "r" / JOURNAL_FILE
        if killed:  # the finish record never reached the disk
            truncate(journal, len(journal.read_bytes().splitlines()) - 1)
        assert main(["run", "examples/quickstart.py", how, "r",
                     "--journal-dir", str(runs)]) == 0
        out = capsys.readouterr().out
        assert trace.digest() in out and ("complete" in out) != killed
        assert RunStore(runs).load_meta("r")["attempts"] == 1 + killed

    @pytest.mark.parametrize("key, value", [
        ("workers", 4), ("workers_mode", "process"), ("strategy", "random"),
    ], ids=["workers", "workers_mode", "strategy"])
    def test_a_retired_key_is_never_compared(self, runs, trace, capsys,
                                             key, value):
        """Whatever value the run recorded for a retired key, the same
        ``repro run`` resumes it and leaves the record as it was."""
        meta_path = runs / "r" / META_FILE
        meta = json.loads(meta_path.read_text())
        meta["meta"][key] = value
        meta_path.write_text(json.dumps(meta))
        assert main(["run", "examples/quickstart.py", "--run-id", "r",
                     "--journal-dir", str(runs)]) == 0
        out = capsys.readouterr().out
        assert trace.digest() in out and "complete" in out
        assert RunStore(runs).load_meta("r")["meta"][key] == value

    def test_another_clock_is_wf009(self, runs, capsys):
        assert main(["run", "examples/quickstart.py", "--run-id", "r",
                     "--clock", "wall",
                     "--journal-dir", str(runs)]) == 2
        assert "repro run: error: WF009: run 'r'" in capsys.readouterr().err
        assert RunStore(runs).load_meta("r")["attempts"] == 1
