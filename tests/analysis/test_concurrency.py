"""Static concurrency analyzer: RACE001-004 / DL001-003."""

import json
import os

import pytest

from repro.cli import main
from repro.core.analysis import (
    Diagnostics,
    ResourceSpec,
    TaskSpec,
    analyze_concurrency,
    check_task_graph_concurrency,
    lint_concurrency_spec,
)
from repro.core.analysis.wfcheck import tasks_from_graph
from repro.workflow.graph import DataObject, TaskGraph, WorkflowTask

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def codes(diagnostics):
    return sorted({item.code for item in diagnostics})


class TestRaces:
    def test_unordered_writers_are_race001(self):
        diags = analyze_concurrency([
            TaskSpec("produce", outputs=["acc"]),
            TaskSpec("upd_a", updates=["acc"]),
            TaskSpec("upd_b", updates=["acc"]),
        ])
        assert codes(diags) == ["RACE001"]
        assert "upd_a" in diags.items[0].message
        assert "upd_b" in diags.items[0].message

    def test_ordered_writers_are_clean(self):
        # chain: produce -> refine (reads acc, writes refined)
        diags = analyze_concurrency([
            TaskSpec("produce", outputs=["acc"]),
            TaskSpec("refine", inputs=["acc"],
                     outputs=["refined"]),
        ])
        assert len(diags) == 0

    def test_reader_vs_unordered_writer_is_race002(self):
        diags = analyze_concurrency([
            TaskSpec("produce", outputs=["acc"]),
            TaskSpec("upd", updates=["acc"]),
            TaskSpec("read", inputs=["acc"]),
        ])
        assert codes(diags) == ["RACE002"]

    def test_torn_multi_object_read_is_race003(self):
        diags = analyze_concurrency([
            TaskSpec("produce", outputs=["left", "right"]),
            TaskSpec("rebalance", updates=["left", "right"]),
            TaskSpec("snapshot", inputs=["left", "right"]),
        ])
        assert "RACE003" in codes(diags)
        torn = [i for i in diags if i.code == "RACE003"]
        assert len(torn) == 1
        assert "snapshot" in torn[0].message

    def test_order_sensitive_tie_is_race004(self):
        diags = analyze_concurrency([
            TaskSpec("p1", outputs=["x"], duration_s=1.0),
            TaskSpec("p2", outputs=["y"], duration_s=1.0),
            TaskSpec("merge", inputs=["x", "y"],
                     order_sensitive=True),
        ])
        assert codes(diags) == ["RACE004"]

    def test_unequal_priorities_silence_race004(self):
        diags = analyze_concurrency([
            TaskSpec("p1", outputs=["x"], duration_s=1.0),
            TaskSpec("p2", outputs=["y"], duration_s=2.0),
            TaskSpec("merge", inputs=["x", "y"],
                     order_sensitive=True),
        ])
        assert len(diags) == 0

    def test_order_insensitive_merge_is_clean(self):
        diags = analyze_concurrency([
            TaskSpec("p1", outputs=["x"], duration_s=1.0),
            TaskSpec("p2", outputs=["y"], duration_s=1.0),
            TaskSpec("merge", inputs=["x", "y"]),
        ])
        assert len(diags) == 0


class TestDeadlocks:
    def test_lock_order_inversion_is_dl001(self):
        diags = analyze_concurrency(
            [
                TaskSpec("t1", acquires=[("r1", 1), ("r2", 1)]),
                TaskSpec("t2", acquires=[("r2", 1), ("r1", 1)]),
            ],
            [ResourceSpec("r1"), ResourceSpec("r2")],
        )
        assert codes(diags) == ["DL001"]

    def test_consistent_order_is_clean(self):
        diags = analyze_concurrency(
            [
                TaskSpec("t1", acquires=[("r1", 1), ("r2", 1)]),
                TaskSpec("t2", acquires=[("r1", 1), ("r2", 1)]),
            ],
            [ResourceSpec("r1"), ResourceSpec("r2")],
        )
        assert len(diags) == 0

    def test_ordered_tasks_do_not_deadlock(self):
        # t2 depends on t1, so the inverted order can never interleave
        diags = analyze_concurrency(
            [
                TaskSpec("t1", outputs=["x"],
                         acquires=[("r1", 1), ("r2", 1)]),
                TaskSpec("t2", inputs=["x"],
                         acquires=[("r2", 1), ("r1", 1)]),
            ],
            [ResourceSpec("r1"), ResourceSpec("r2")],
        )
        assert len(diags) == 0

    def test_overcapacity_request_is_dl002(self):
        diags = analyze_concurrency(
            [TaskSpec("greedy", acquires=[("r", 3)])],
            [ResourceSpec("r", 2)],
        )
        assert codes(diags) == ["DL002"]

    def test_unknown_resource_is_dl002(self):
        diags = analyze_concurrency(
            [TaskSpec("ghostly", acquires=[("phantom", 1)])],
        )
        assert codes(diags) == ["DL002"]

    def test_hold_and_wait_exhaustion_is_dl003(self):
        diags = analyze_concurrency(
            [
                TaskSpec("left", acquires=[("pool", 2)]),
                TaskSpec("right", acquires=[("pool", 2)]),
            ],
            [ResourceSpec("pool", 2)],
        )
        assert codes(diags) == ["DL003"]

    def test_ample_capacity_is_clean(self):
        diags = analyze_concurrency(
            [
                TaskSpec("left", acquires=[("pool", 2)]),
                TaskSpec("right", acquires=[("pool", 2)]),
            ],
            [ResourceSpec("pool", 4)],
        )
        assert len(diags) == 0

    def test_ordered_claimants_cannot_exhaust(self):
        diags = analyze_concurrency(
            [
                TaskSpec("left", outputs=["x"],
                         acquires=[("pool", 2)]),
                TaskSpec("right", inputs=["x"],
                         acquires=[("pool", 2)]),
            ],
            [ResourceSpec("pool", 2)],
        )
        assert len(diags) == 0

    def test_checks_filter(self):
        tasks = [
            TaskSpec("produce", outputs=["acc"]),
            TaskSpec("upd_a", updates=["acc"]),
            TaskSpec("upd_b", updates=["acc"]),
            TaskSpec("greedy", acquires=[("r", 3)]),
        ]
        race_only = analyze_concurrency(
            tasks, [ResourceSpec("r", 2)], checks=["race"]
        )
        dl_only = analyze_concurrency(
            tasks, [ResourceSpec("r", 2)], checks=["dl"]
        )
        assert codes(race_only) == ["RACE001"]
        assert codes(dl_only) == ["DL002"]
        with pytest.raises(ValueError):
            analyze_concurrency(tasks, checks=["bogus"])


class TestAdapters:
    def test_task_graph_adapter_sees_updates(self):
        graph = TaskGraph("adapter")
        graph.add_object(DataObject("seed"))
        graph.add_task(WorkflowTask(
            "produce", inputs=["seed"], outputs=["acc"],
        ))
        graph.add_task(WorkflowTask("upd_a", updates=["acc"]))
        graph.add_task(WorkflowTask("upd_b", updates=["acc"]))
        tasks = tasks_from_graph(graph)
        assert codes(check_task_graph_concurrency(graph)) == ["RACE001"]
        # a graph task acquires nothing; the analysis over its adapted
        # tasks still sees an acquisition a spec adds
        tasks[-1].acquires.append(("role", 3))
        diags = analyze_concurrency(tasks, [ResourceSpec("role", 2)])
        assert codes(diags) == ["DL002", "RACE001"]

    def test_spec_adapter_accepts_dict_acquires(self):
        diags = lint_concurrency_spec({
            "name": "spec",
            "resources": [{"name": "role", "capacity": 2}],
            "tasks": [
                {"name": "greedy",
                 "acquires": [{"resource": "role", "units": 3}]},
            ],
        })
        assert codes(diags) == ["DL002"]

    @pytest.mark.parametrize(
        "tasks,resources,malformed,findings",
        [
            ([{"name": "stall", "acquires": [[]]}], [],
             ["spec/tasks[0]"], ["RACE001"]),
            ([{"name": "stall", "acquires": "dma"}], [],
             ["spec/tasks[0]"], ["RACE001"]),
            ([7, {"name": "slow", "duration_s": "long"}], [],
             ["spec/tasks[0]", "spec/tasks[1]"], ["RACE001"]),
            ([{"name": "greedy", "acquires": [["role", 3]]}],
             ["role", {"name": "role", "capacity": 2}],
             ["spec/resources[0]"], ["DL002", "RACE001"]),
            ([{"name": "greedy", "acquires": [["role", 3]]}],
             [{"name": "role", "capacity": "two"}],
             ["spec/resources[0]"], ["DL002", "RACE001"]),
        ],
    )
    def test_spec_adapter_reports_malformed_entries_and_goes_on(
        self, tasks, resources, malformed, findings
    ):
        racy = [
            {"name": "produce", "outputs": ["acc"]},
            {"name": "upd_a", "updates": ["acc"]},
            {"name": "upd_b", "updates": ["acc"]},
        ]
        diags = lint_concurrency_spec({  # never raises
            "name": "spec", "resources": resources,
            "tasks": tasks + racy,
        })
        loader = [item for item in diags if item.code == "DSL001"]
        assert [item.anchor for item in loader] == malformed
        assert {item.analysis for item in loader} == {"loader"}
        assert [c for c in codes(diags) if c != "DSL001"] == findings

    def test_both_spec_lints_share_one_report_per_entry(self):
        from repro.core.analysis import lint_workflow_spec

        spec = {"name": "spec", "tasks": [
            3, {"name": "t", "outputs": ["a"]}]}
        diags = Diagnostics()
        lint_workflow_spec(spec, diags)
        lint_concurrency_spec(spec, diags)
        assert [item.anchor for item in diags] == ["spec/tasks[0]"]

    def test_diagnostics_carry_analysis_and_anchor(self):
        diags = Diagnostics()
        analyze_concurrency(
            [
                TaskSpec("produce", outputs=["acc"]),
                TaskSpec("upd_a", updates=["acc"]),
                TaskSpec("upd_b", updates=["acc"]),
            ],
            name="wf",
            diagnostics=diags,
        )
        item = diags.items[0]
        assert item.analysis == "concurrency"
        assert item.anchor == "wf/acc"


class TestGraphUpdates:
    def test_updater_depends_on_producer(self):
        graph = TaskGraph("deps")
        graph.add_object(DataObject("seed"))
        graph.add_task(WorkflowTask(
            "produce", inputs=["seed"], outputs=["acc"],
        ))
        graph.add_task(WorkflowTask("upd", updates=["acc"]))
        assert graph.dependencies("upd") == ["produce"]
        assert "upd" in graph.consumers("produce")

    def test_unknown_update_object_rejected(self):
        from repro.errors import WorkflowError

        graph = TaskGraph("deps")
        with pytest.raises(WorkflowError, match="unknown updated"):
            graph.add_task(WorkflowTask("upd", updates=["ghost"]))


class TestCompilerGate:
    def test_clean_pipeline_compiles(self):
        from repro.core.compiler import EverestCompiler
        from repro.core.dsl.workflow import Pipeline
        from repro.core.ir import F32, TensorType

        source = """
        kernel smooth(X: tensor<16xf32>) -> tensor<16xf32> {
          Y = relu(X)
          return Y
        }
        """
        pipeline = Pipeline("gate")
        src = pipeline.source("x", TensorType((16,), F32))
        task = pipeline.task("stage", source, inputs=[src],
                             kernel="smooth")
        pipeline.sink("out", task.output(0))
        app = EverestCompiler(emit_artifacts=False).compile(pipeline)
        assert not app.diagnostics.has_errors


class TestLintCLIConcurrency:
    @pytest.mark.parametrize(
        "fixture,code",
        [
            ("conc_race_ww.json", "RACE001"),
            ("conc_race_rw.json", "RACE002"),
            ("conc_race_torn.json", "RACE003"),
            ("conc_race_tie.json", "RACE004"),
            ("conc_dl_order.json", "DL001"),
            ("conc_dl_capacity.json", "DL002"),
            ("conc_dl_holdwait.json", "DL003"),
            ("cycle_order_sensitive.json", "RACE004"),
        ],
    )
    def test_fixture_true_positive(self, capsys, fixture, code):
        path = os.path.join(FIXTURES, fixture)
        assert main(["lint", path, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        found = {item["code"] for item in payload["diagnostics"]}
        assert code in found

    def test_only_race_dl_filters_other_checks(self, capsys):
        path = os.path.join(FIXTURES, "conc_race_ww.json")
        assert main([
            "lint", path, "--only", "RACE,DL", "--format", "json",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        found = {item["code"] for item in payload["diagnostics"]}
        assert found == {"RACE001"}

    def test_only_race_dl_skips_wf_findings(self, capsys):
        path = os.path.join(FIXTURES, "cycle.json")
        assert main([
            "lint", path, "--only", "RACE,DL", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"] == []

    def test_clean_fixture_stays_clean(self):
        path = os.path.join(FIXTURES, "clean.json")
        assert main(["lint", path]) == 0

    def test_suppress_clears_exit_code(self, capsys):
        path = os.path.join(FIXTURES, "conc_dl_holdwait.json")
        assert main(["lint", path, "--suppress", "DL003"]) == 0

    def test_cyclic_plan_still_gets_its_priorities(self, capsys):
        # p1 <-> p2 cycle, independent p3, order-sensitive join of p1's
        # and p3's outputs: b-levels must stay defined on the cycle
        # (p1 and p3 tie) and the analyzer must not crash into DSL001
        path = os.path.join(FIXTURES, "cycle_order_sensitive.json")
        assert main(["lint", path]) == 1
        assert capsys.readouterr().out.splitlines()[1:] == [
            "  error[RACE004] @ cycle-order-sensitive/join: "
            "order-sensitive task 'join' consumes unordered producers "
            "'p1' and 'p3' with equal priority: the scheduler tie-break "
            "decides the result",
            "  error[WF001] @ cycle-order-sensitive/p1: dependency "
            "cycle: p1 -> p2 -> p1",
            "  -- 2 errors",
        ]
