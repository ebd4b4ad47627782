"""CLI surface of durable runs: --journal-dir/--resume and `repro runs`.

Exercises the full kill/resume round trip the way a user would drive
it: a journaled `repro chaos` run, a simulated crash (journal
truncated at a record boundary and mid-record), `repro chaos --resume`
reproducing the original digest, and the `repro runs list|show|gc`
store management commands.
"""

from __future__ import annotations

import re

from repro.cli import main
from repro.workflow.journal import JOURNAL_FILE
from repro.workflow.runstore import RunStore


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
