"""Tests for task graphs and data objects."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import random_task_graph
from repro.errors import WorkflowError
from repro.utils import dag
from repro.workflow.graph import DataObject, TaskGraph, WorkflowTask
from repro.workflow.recovery import ResilientServer
from repro.workflow.scheduler import make_policy

from tests.chaos.conftest import make_pool
from tests.conftest import examples


def diamond() -> TaskGraph:
    graph = TaskGraph("diamond")
    graph.add_object(DataObject("in", size_bytes=100))
    graph.add_task(WorkflowTask("a", inputs=["in"], outputs=["x"],
                                duration_s=1.0))
    graph.add_task(WorkflowTask("b", inputs=["x"], outputs=["y"],
                                duration_s=2.0))
    graph.add_task(WorkflowTask("c", inputs=["x"], outputs=["z"],
                                duration_s=3.0))
    graph.add_task(WorkflowTask("d", inputs=["y", "z"],
                                outputs=["out"], duration_s=1.0))
    return graph


def updates() -> TaskGraph:
    graph = diamond()
    graph.add_task(WorkflowTask("patch", updates=["x"], duration_s=0.5))
    return graph


class TestGraphConstruction:
    def test_outputs_become_objects(self):
        graph = diamond()
        assert "x" in graph.objects
        assert graph.objects["x"].producer == "a"

    def test_duplicate_task_rejected(self):
        graph = diamond()
        with pytest.raises(WorkflowError):
            graph.add_task(WorkflowTask("a"))

    def test_duplicate_object_rejected(self):
        graph = diamond()
        with pytest.raises(WorkflowError):
            graph.add_object(DataObject("in"))

    def test_unknown_input_rejected(self):
        graph = TaskGraph()
        with pytest.raises(WorkflowError, match="unknown input"):
            graph.add_task(WorkflowTask("t", inputs=["ghost"]))

    def test_output_collision_rejected(self):
        graph = diamond()
        with pytest.raises(WorkflowError, match="already produced"):
            graph.add_task(WorkflowTask("e", outputs=["x"]))

    def test_set_object_size(self):
        graph = diamond()
        graph.set_object_size("x", 42)
        assert graph.objects["x"].size_bytes == 42
        with pytest.raises(WorkflowError):
            graph.set_object_size("ghost", 1)


class TestGraphQueries:
    def test_dependencies(self):
        graph = diamond()
        assert graph.dependencies("d") == ["b", "c"]
        assert graph.dependencies("a") == []

    def test_consumers(self):
        graph = diamond()
        assert sorted(graph.consumers("a")) == ["b", "c"]
        assert graph.consumers("d") == []

    def test_topological_order_valid(self):
        graph = diamond()
        order = graph.topological_order()
        for task_name in graph.tasks:
            for dependency in graph.dependencies(task_name):
                assert order.index(dependency) < order.index(task_name)

    def test_external_inputs(self):
        graph = diamond()
        assert [obj.name for obj in graph.external_inputs()] == ["in"]


class TestGraphAnalysis:
    def test_b_levels(self):
        graph = diamond()
        levels = graph.b_levels()
        # d = 1; b = 2+1; c = 3+1; a = 1 + max(3,4)
        assert levels["d"] == pytest.approx(1.0)
        assert levels["b"] == pytest.approx(3.0)
        assert levels["c"] == pytest.approx(4.0)
        assert levels["a"] == pytest.approx(5.0)

    def test_critical_path(self):
        assert max(diamond().b_levels().values()) == pytest.approx(5.0)

    def test_total_work(self):
        assert diamond().total_work() == pytest.approx(7.0)

    def test_cycle_detected(self):
        graph = TaskGraph()
        graph.add_object(DataObject("seed"))
        # manual cycle: t1 consumes t2's output and vice versa
        graph.objects["loop1"] = DataObject("loop1", producer="t2")
        graph.add_task(WorkflowTask("t1", inputs=["loop1"],
                                    outputs=["mid"]))
        graph.add_task(WorkflowTask("t2", inputs=["mid"]))
        graph.objects["loop1"].producer = "t2"
        graph.tasks["t2"].outputs.append("loop1")
        with pytest.raises(WorkflowError, match="cycle"):
            graph.validate()

    @settings(max_examples=examples())
    @given(st.integers(min_value=1, max_value=20))
    def test_property_chain_critical_path(self, length):
        graph = TaskGraph()
        graph.add_object(DataObject("in"))
        previous = "in"
        for index in range(length):
            graph.add_task(WorkflowTask(
                f"t{index}", inputs=[previous],
                outputs=[f"o{index}"], duration_s=1.0,
            ))
            previous = f"o{index}"
        assert max(graph.b_levels().values()) == pytest.approx(length)
        assert graph.total_work() == pytest.approx(length)


def ghost_producer_graph() -> TaskGraph:
    graph = TaskGraph("haunted")
    graph.add_object(DataObject("x", producer="ghost"))
    graph.add_task(WorkflowTask("t", inputs=["x"], outputs=["y"]))
    return graph


class TestUnknownProducer:
    @pytest.mark.parametrize("query", [
        "validate", "topological_order", "b_levels",
    ])
    def test_every_query_names_the_object_and_the_producer(self, query):
        with pytest.raises(WorkflowError, match="'x'.*'ghost'"):
            getattr(ghost_producer_graph(), query)()

    def test_unconsumed_object_is_checked_too(self):
        graph = diamond()
        graph.add_object(DataObject("stray", producer="nobody"))
        with pytest.raises(WorkflowError, match="'stray'.*'nobody'"):
            graph.validate()


class TestIndexInvalidation:
    def test_added_task_is_seen_by_the_same_queries(self):
        graph = diamond()
        assert graph.consumers("d") == []
        order = graph.topological_order()
        levels = graph.b_levels()
        graph.add_task(WorkflowTask("e", inputs=["out"], outputs=["end"],
                                    duration_s=2.0))
        assert graph.consumers("d") == ["e"]
        assert graph.dependencies("e") == ["d"]
        assert graph.topological_order() == order + ["e"]
        assert graph.b_levels()["a"] == pytest.approx(levels["a"] + 2.0)

    def test_added_object_and_root_task_are_seen(self):
        graph = diamond()
        assert graph.topological_order() == ["a", "b", "c", "d"]
        graph.add_object(DataObject("other"))
        graph.add_task(WorkflowTask("r", inputs=["other"]))
        assert graph.topological_order() == ["a", "r", "b", "c", "d"]

    def test_answers_are_copies(self):
        graph = diamond()
        graph.dependencies("d").append("a")
        graph.consumers("a").clear()
        assert graph.dependencies("d") == ["b", "c"]
        assert graph.consumers("a") == ["b", "c"]

    def test_updates_order_a_task_after_the_producer(self):
        graph = updates()
        assert graph.dependencies("patch") == ["a"]
        assert graph.consumers("a") == ["b", "c", "patch"]


class TestCycleVerdict:
    """A graph is searched for cycles once per change, not per query:
    the Kahn walk is the verdict, and a cycle is only looked for to
    name it."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = {"topological_order": 0, "find_cycle": 0}
        for name in calls:
            def counting(edges, walk=getattr(dag, name), name=name):
                calls[name] += 1
                return walk(edges)

            monkeypatch.setattr(dag, name, counting)
        return calls

    def test_a_run_searches_once(self, walks):
        graph = random_task_graph(1, num_tasks=20)
        ResilientServer(make_pool(3), policy=make_policy("b-level")).run(
            graph)
        assert walks == {"topological_order": 1, "find_cycle": 0}
        graph.topological_order()
        graph.b_levels()
        assert walks == {"topological_order": 1, "find_cycle": 0}

    def test_adding_drops_the_verdict(self, walks):
        graph = diamond()
        graph.validate()
        graph.add_task(WorkflowTask("e", inputs=["out"]))
        graph.validate()
        graph.add_object(DataObject("other"))
        graph.topological_order()
        assert walks == {"topological_order": 3, "find_cycle": 0}

    def test_a_cyclic_graph_is_refused_by_every_run(self, walks):
        graph = TaskGraph()
        graph.add_object(DataObject("loop", producer="t2"))
        graph.add_task(WorkflowTask("t1", inputs=["loop"], outputs=["mid"]))
        graph.add_task(WorkflowTask("t2", inputs=["mid"]))
        for run in range(1, 3):
            with pytest.raises(WorkflowError) as caught:
                ResilientServer(make_pool(3)).run(graph)
            assert str(caught.value) == \
                "workflow contains a cycle: t1 -> t2 -> t1"
            assert walks["find_cycle"] == run


@pytest.mark.parametrize("graph", [diamond(), updates(), *(
    random_task_graph(seed, num_tasks=60) for seed in range(8))])
def test_the_kept_order_answers_as_the_walks_over_its_edges(graph):
    consumers = {name: graph.consumers(name) for name in graph.tasks}
    order = graph.topological_order()
    assert order == dag.topological_order(consumers)
    order.reverse()  # a copy: the kept order stays as it was
    assert graph.topological_order() == dag.topological_order(consumers)
    assert graph.b_levels() == dag.bottom_levels(consumers, {
        name: task.duration_s for name, task in graph.tasks.items()})
