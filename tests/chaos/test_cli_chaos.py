"""CLI `chaos` subcommand: summary, JSON output, replay verification."""

import json

import pytest

from repro.cli import main


class TestChaosCommand:
    def test_summary_table(self, capsys):
        assert main([
            "chaos", "--graph-seed", "1", "--fault-seed", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "chaos run graph-seed=1 fault-seed=2" in out
        assert "tasks completed" in out
        assert "12/12" in out
        assert "trace digest" in out

    def test_verify_replay_is_byte_identical(self, capsys):
        assert main([
            "chaos", "--graph-seed", "3", "--fault-seed", "7",
            "--verify-replay",
        ]) == 0
        out = capsys.readouterr().out
        assert "replay verified: identical trace" in out

    def test_json_output_parses_and_replays(self, capsys):
        argv = [
            "chaos", "--graph-seed", "5", "--fault-seed", "11",
            "--json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["graph_name"] == "chaos-graph-5"
        assert len(payload["records"]) >= 12
        assert "faults" in payload and "recoveries" in payload

    def test_cli_matches_library_trace(self, capsys):
        """The CLI is a veneer: the same seeds through the library API
        must serialize to the exact bytes the CLI prints."""
        from repro.chaos import (
            ChaosConfig,
            generate_schedule,
            random_task_graph,
        )
        from repro.workflow.recovery import ResilientServer
        from repro.workflow.scheduler import make_policy
        from repro.workflow.worker import Worker

        assert main([
            "chaos", "--graph-seed", "2", "--fault-seed", "9", "--json",
        ]) == 0
        cli_json = capsys.readouterr().out.strip()

        graph = random_task_graph(2, num_tasks=12)
        workers = [
            Worker(f"w{index}", node_name=f"n{index}", cpus=2)
            for index in range(3)
        ]
        schedule = generate_schedule(
            graph, [w.name for w in workers], 9, ChaosConfig(),
        )
        server = ResilientServer(
            workers, policy=make_policy("b-level"),
        )
        trace, _stats = server.run(graph, chaos=schedule)
        assert trace.to_json() == cli_json

    def test_fault_knobs_reach_schedule(self, capsys):
        assert main([
            "chaos", "--graph-seed", "0", "--fault-seed", "0",
            "--crashes", "2", "--task-faults", "0",
            "--link-faults", "0", "--reconfig-faults", "0",
            "--stragglers", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "fault: worker-crash" in out
        assert "task-fault" not in out


@pytest.mark.parametrize("flag,value,error", [
    ("--tasks", "-3", "a task graph needs at least one task, got -3"),
    ("--crashes", "-1", "crashes must be non-negative, got -1"),
])
def test_a_negative_count_is_one_coded_line(capsys, flag, value, error):
    """A negative count used to run another scenario (the empty graph,
    no crash) and report success."""
    assert main(["chaos", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"repro chaos: error: {error}\n"
