"""Workflow-DAG linter tests: the four defect classes + adapters."""

import json
import os

import pytest

from repro.core.analysis.wfcheck import (
    TaskSpec,
    WorkerSpec,
    lint_workflow,
    lint_workflow_spec,
    tasks_from_graph,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _load(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
        return json.load(handle)


def _codes(diagnostics):
    return [item.code for item in diagnostics.sorted()]


class TestDefectClasses:
    def test_clean_graph(self):
        diagnostics = lint_workflow_spec(_load("clean.json"))
        assert not diagnostics.items

    def test_cycle_wf001(self):
        diagnostics = lint_workflow_spec(_load("cycle.json"))
        assert "WF001" in _codes(diagnostics)
        finding = next(
            item for item in diagnostics if item.code == "WF001"
        )
        # the message spells out the cycle path
        assert "->" in finding.message

    def test_unproducible_wf002_and_starvation_wf006(self):
        diagnostics = lint_workflow_spec(_load("unproducible.json"))
        codes = _codes(diagnostics)
        assert "WF002" in codes
        assert "WF006" in codes  # report depends on the missing input
        wf002 = next(
            item for item in diagnostics if item.code == "WF002"
        )
        assert "phantom" in wf002.message

    def test_overcapacity_wf003(self):
        diagnostics = lint_workflow_spec(_load("overcapacity.json"))
        assert "WF003" in _codes(diagnostics)
        finding = next(
            item for item in diagnostics if item.code == "WF003"
        )
        assert "64" in finding.message and "8" in finding.message

    def test_duplicate_output_wf004(self):
        diagnostics = lint_workflow_spec(_load("dup_output.json"))
        assert "WF004" in _codes(diagnostics)

    def test_duplicate_task_wf005(self):
        diagnostics = lint_workflow(
            [
                TaskSpec("t", outputs=["a"]),
                TaskSpec("t", outputs=["b"]),
            ]
        )
        assert "WF005" in _codes(diagnostics)

    def test_external_also_produced_wf004(self):
        diagnostics = lint_workflow(
            [TaskSpec("t", outputs=["raw"])], externals=["raw"]
        )
        assert "WF004" in _codes(diagnostics)

    def test_self_cycle(self):
        diagnostics = lint_workflow(
            [TaskSpec("t", inputs=["a"], outputs=["a"])]
        )
        assert "WF001" in _codes(diagnostics)


class TestMalformedSpecs:
    """A malformed entry is one DSL001; the rest is still linted."""

    CYCLE = [
        {"name": "p", "inputs": ["z"], "outputs": ["y"]},
        {"name": "q", "inputs": ["y"], "outputs": ["z"]},
    ]

    @pytest.mark.parametrize(
        "spec,malformed,findings",
        [
            ({"name": "x", "tasks": [1] + CYCLE},
             {"x/tasks[0]": "entry must be an object, not int"},
             ["WF001"]),
            ({"name": "x", "tasks": CYCLE + [
                {"name": "t", "inputs": "raw", "outputs": ["a"],
                 "cpus": "two"}]},
             {"x/tasks[2]": "'inputs' must be a list of names; "
                            "'cpus' must be an integer"},
             ["WF001"]),
            ({"tasks": {"t": {}}, "workers": [3]},
             {"workflow/tasks":
                  "'tasks' must be a list of objects, not dict",
              "workflow/workers[0]": "entry must be an object, not int"},
             []),
            ({"tasks": CYCLE, "workers": [{"cpus": []}],
              "externals": "raw"},
             {"workflow/workers[0]": "'cpus' must be an integer",
              "workflow/externals":
                  "'externals' must be a list of names"},
             ["WF001"]),
            ({"tasks": [{"name": "t", "outputs": 5,
                         "types": {"a": {"shape": ["n"]}}}]},
             {"workflow/tasks[0]": "'outputs' must be a list of names"},
             []),
        ],
    )
    def test_one_dsl001_per_malformed_entry(
        self, spec, malformed, findings
    ):
        diagnostics = lint_workflow_spec(spec)  # never raises
        loader = {
            item.anchor: item.message for item in diagnostics
            if item.code == "DSL001"
        }
        assert loader == malformed
        assert len(loader) == sum(
            item.code == "DSL001" for item in diagnostics)
        assert all(
            item.analysis == "loader" for item in diagnostics
            if item.code == "DSL001"
        )
        assert [
            code for code in _codes(diagnostics) if code != "DSL001"
        ] == findings

    def test_a_bare_string_is_not_read_as_its_characters(self):
        spec = {"externals": ["raw"], "tasks": [
            {"name": "t", "inputs": "raw", "outputs": ["a"]}]}
        assert _codes(lint_workflow_spec(spec)) == ["DSL001"]

    def test_null_reads_as_absent(self):
        spec = {"externals": None, "tasks": [
            {"name": "t", "inputs": None, "outputs": ["a"],
             "cpus": None}]}
        assert not lint_workflow_spec(spec).items


class TestUpdatesAreDependencies:
    """The linter orders by ``updates`` exactly as the engine does."""

    def test_cycle_through_an_update_wf001(self):
        diagnostics = lint_workflow_spec(_load("update_cycle.json"))
        assert _codes(diagnostics) == ["WF001"]
        assert "t1 -> t2 -> t1" in diagnostics.items[0].message

    def test_unproducible_update_wf002_and_starvation_wf006(self):
        diagnostics = lint_workflow_spec(
            _load("update_unproducible.json")
        )
        assert _codes(diagnostics) == ["WF002", "WF006"]
        wf002, wf006 = diagnostics.sorted()
        assert "'patch'" in wf002.message and "'phantom'" in wf002.message
        assert "'report'" in wf006.message

    def test_update_of_an_external_or_upstream_object_is_clean(self):
        diagnostics = lint_workflow(
            [
                TaskSpec("make", inputs=["raw"], outputs=["table"]),
                TaskSpec("patch", updates=["table", "raw"]),
            ],
            externals=["raw"],
        )
        assert not diagnostics.items

    def test_task_graph_adapter_carries_updates(self):
        from repro.workflow.graph import (
            DataObject,
            TaskGraph,
            WorkflowTask,
        )

        graph = TaskGraph("g")
        graph.add_object(DataObject("raw"))
        graph.add_task(WorkflowTask("t1", inputs=["raw"], outputs=["a"]))
        graph.add_task(WorkflowTask("t2", inputs=["a"], outputs=["b"]))
        # close t2 -> t1 through an in-place update of t2's output
        graph.tasks["t1"].updates.append("b")
        assert _codes(lint_workflow(
            tasks_from_graph(graph), ["raw"])) == ["WF001"]


class TestAdapters:
    def test_task_graph_adapter_clean(self):
        from repro.workflow.graph import (
            DataObject,
            TaskGraph,
            WorkflowTask,
        )

        graph = TaskGraph("g")
        graph.add_object(DataObject("raw", size_bytes=64))
        graph.add_task(WorkflowTask(
            "a", inputs=["raw"], outputs=["mid"], cpus=1,
        ))
        graph.add_task(WorkflowTask(
            "b", inputs=["mid"], outputs=["out"], cpus=2,
        ))
        diagnostics = lint_workflow(tasks_from_graph(graph), ["raw"])
        assert not diagnostics.items

    def test_task_graph_adapter_capacity(self):
        from repro.workflow.graph import (
            DataObject,
            TaskGraph,
            WorkflowTask,
        )
        from repro.workflow.worker import Worker

        graph = TaskGraph("g")
        graph.add_object(DataObject("raw", size_bytes=64))
        graph.add_task(WorkflowTask(
            "a", inputs=["raw"], outputs=["out"], cpus=8,
        ))
        workers = [Worker("w0", node_name="n0", cpus=2)]
        diagnostics = lint_workflow(
            tasks_from_graph(graph), ["raw"], workers=workers)
        assert "WF003" in _codes(diagnostics)

    def test_worker_spec_capacity_boundary(self):
        tasks = [TaskSpec("t", outputs=["a"], cpus=4)]
        exact = lint_workflow(tasks, workers=[WorkerSpec("w", cpus=4)])
        assert "WF003" not in _codes(exact)
        tight = lint_workflow(tasks, workers=[WorkerSpec("w", cpus=3)])
        assert "WF003" in _codes(tight)


class TestSpecContracts:
    """WF010/WF011 over per-object ``types`` declarations."""

    def _spec(self, consumer_types):
        return {
            "name": "contracts",
            "externals": ["raw"],
            "types": {"raw": {"shape": [64, 32], "dtype": "f32"}},
            "tasks": [
                {
                    "name": "clean", "inputs": ["raw"],
                    "outputs": ["table"],
                    "types": {
                        "table": {"shape": [64, 16], "dtype": "f32"},
                    },
                },
                {
                    "name": "score", "inputs": ["table"],
                    "outputs": ["result"],
                    "types": consumer_types,
                },
            ],
            "workers": [{"name": "w0", "cpus": 4}],
        }

    def test_matching_contract_is_clean(self):
        spec = self._spec(
            {"table": {"shape": [64, 16], "dtype": "f32"}})
        assert not lint_workflow_spec(spec).items

    def test_shape_disagreement_is_wf010(self):
        spec = self._spec(
            {"table": {"shape": [64, 32], "dtype": "f32"}})
        diagnostics = lint_workflow_spec(spec)
        assert _codes(diagnostics) == ["WF010"]
        (item,) = diagnostics.sorted()
        assert "64x32" in item.message and "64x16" in item.message
        assert "clean" in item.message

    def test_dtype_disagreement_is_wf011(self):
        spec = self._spec(
            {"table": {"shape": [64, 16], "dtype": "f64"}})
        diagnostics = lint_workflow_spec(spec)
        assert _codes(diagnostics) == ["WF011"]

    def test_shape_mismatch_shadows_dtype_mismatch(self):
        spec = self._spec(
            {"table": {"shape": [8, 8], "dtype": "f64"}})
        assert _codes(lint_workflow_spec(spec)) == ["WF010"]

    def test_external_declaration_is_the_contract(self):
        spec = self._spec({})
        spec["tasks"][0]["types"]["raw"] = {
            "shape": [32, 32], "dtype": "f32",
        }
        diagnostics = lint_workflow_spec(spec)
        (item,) = diagnostics.sorted()
        assert item.code == "WF010"
        assert "externals" in item.message

    def test_one_sided_declarations_are_skipped(self):
        # consumer silent -> no contract to violate
        assert not lint_workflow_spec(self._spec({})).items
        # producer silent -> same
        spec = self._spec(
            {"table": {"shape": [1, 1], "dtype": "f64"}})
        del spec["tasks"][0]["types"]
        assert not lint_workflow_spec(spec).items

    def test_malformed_types_sections_are_ignored(self):
        spec = self._spec("not-a-dict")
        spec["types"] = ["also", "wrong"]
        assert not lint_workflow_spec(spec).items

    def test_shape_mismatch_fixture_round_trips_the_cli_path(self):
        diagnostics = lint_workflow_spec(_load("shape_mismatch.json"))
        assert "WF010" in _codes(diagnostics)
