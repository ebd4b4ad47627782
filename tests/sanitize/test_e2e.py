"""End-to-end: static hazard -> chaos schedule -> dynamic confirmation.

The acceptance path of the concurrency analyzer: a workflow whose
``updates`` make a race statically *possible* (RACE001/RACE002) is
executed under a chaos fault schedule, and the happens-before checker
confirms the race actually manifests (SAN001/SAN002), with
byte-identical sanitizer reports across replays of the same seeds.
"""

import json

from repro.chaos import ChaosConfig, generate_schedule
from repro.cli import main
from repro.core.analysis import check_task_graph_concurrency
from repro.obs import observe, session
from repro.sanitize import sanitize_tracer
from repro.workflow.graph import (
    DataObject,
    TaskGraph,
    WorkflowTask,
    random_task_graph,
)
from repro.workflow.recovery import ResilientServer

from tests.chaos.conftest import make_pool


def updates_graph() -> TaskGraph:
    """Producer + two in-place updaters + reader: statically racy."""
    graph = TaskGraph("updates-race")
    graph.add_object(DataObject("seed", size_bytes=64))
    graph.add_task(WorkflowTask(
        "produce", inputs=["seed"], outputs=["acc"], duration_s=0.01,
    ))
    graph.add_task(WorkflowTask("upd_a", updates=["acc"],
                                duration_s=0.01))
    graph.add_task(WorkflowTask("upd_b", updates=["acc"],
                                duration_s=0.01))
    graph.add_task(WorkflowTask(
        "read", inputs=["acc"], outputs=["out"], duration_s=0.01,
    ))
    return graph


def sanitized_chaos_run(graph, fault_seed: int):
    """Run ``graph`` under a seeded chaos schedule; sanitize trace."""
    pool = make_pool()
    schedule = generate_schedule(
        graph, [worker.name for worker in pool], fault_seed,
        ChaosConfig(crashes=1, link_faults=0, reconfig_faults=1,
                    stragglers=1, task_faults=1),
    )
    obs = session(deterministic=True)
    with observe(obs):
        server = ResilientServer(pool)
        server.run(graph, chaos=schedule)
    return sanitize_tracer(obs.tracer)


class TestStaticToDynamic:
    def test_static_layer_flags_the_hazard(self):
        diags = check_task_graph_concurrency(updates_graph())
        found = {item.code for item in diags}
        assert "RACE001" in found
        assert "RACE002" in found

    def test_chaos_schedule_confirms_the_race(self):
        findings = sanitized_chaos_run(updates_graph(), fault_seed=3)
        found = {item.code for item in findings}
        assert "SAN001" in found
        assert "SAN002" in found

    def test_reports_are_byte_identical_across_replays(self):
        first = sanitized_chaos_run(
            updates_graph(), fault_seed=3
        ).to_json(indent=2)
        second = sanitized_chaos_run(
            updates_graph(), fault_seed=3
        ).to_json(indent=2)
        assert first == second

    def test_clean_seed_graphs_stay_clean_under_chaos(self):
        # lineage re-execution must not masquerade as a race
        for fault_seed in (0, 1):
            graph = random_task_graph(2, num_tasks=12)
            findings = sanitized_chaos_run(graph, fault_seed)
            assert len(findings) == 0, findings.render_text()

    def test_fault_free_run_is_clean(self):
        graph = random_task_graph(5, num_tasks=10)
        pool = make_pool()
        obs = session(deterministic=True)
        with observe(obs):
            ResilientServer(pool).run(graph)
        assert len(sanitize_tracer(obs.tracer)) == 0


class TestCLISanitize:
    def test_chaos_sanitize_clean_seed_exits_zero(self, capsys):
        assert main([
            "chaos", "--graph-seed", "1", "--fault-seed", "2",
            "--sanitize",
        ]) == 0
        assert "clean" in capsys.readouterr().out

    def test_chaos_sanitize_json_report(self, capsys):
        assert main([
            "chaos", "--graph-seed", "1", "--fault-seed", "2",
            "--sanitize", "--format", "json", "--json",
        ]) == 0
        # last printed JSON object is the sanitizer report
        out = capsys.readouterr().out.strip().splitlines()
        payload = json.loads("\n".join(
            out[out.index("{"):]
        ))
        assert payload["diagnostics"] == []

    def test_run_sanitize_exits_zero(self, tmp_path, capsys):
        spec = tmp_path / "blur.edsl"
        spec.write_text(
            "kernel blur(X: tensor<64xf32>, W: tensor<64xf32>) "
            "-> tensor<64xf32> {\n  Y = X * W\n  return Y\n}\n"
        )
        assert main(["run", str(spec), "--sanitize"]) == 0
        assert "sanitize" in capsys.readouterr().out

    def test_verify_replay_with_sanitize(self, capsys):
        assert main([
            "chaos", "--graph-seed", "2", "--fault-seed", "1",
            "--sanitize", "--verify-replay",
        ]) == 0
        assert "replay verified" in capsys.readouterr().out
