"""Tests for the shared dependency relation and its graph queries.

networkx is the oracle: it stays installed for the platform topology,
and the workflow layer used to answer these questions with it.
"""

import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import random_task_graph
from repro.utils import dag
from tests.conftest import examples


def to_networkx(edges) -> nx.DiGraph:
    """The digraph with the same node and edge insertion order."""
    graph = nx.DiGraph()
    graph.add_nodes_from(edges)
    for node, successors in edges.items():
        for successor in successors:
            graph.add_edge(node, successor)
    return graph


def task_edges(graph):
    """``{task: consumers}`` of a TaskGraph, rebuilt from its tasks
    and objects alone (not through the graph's own index)."""
    edges = {name: [] for name in graph.tasks}
    for task in graph.tasks.values():
        for obj in list(task.inputs) + list(task.updates):
            upstream = graph.objects[obj].producer
            if upstream is not None and task.name not in edges[upstream]:
                edges[upstream].append(task.name)
    return edges


@st.composite
def digraphs(draw, acyclic: bool):
    """``edges`` over up to 12 nodes whose names, key order and
    successor order are all drawn independently of the topology."""
    count = draw(st.integers(min_value=1, max_value=12))
    names = draw(st.permutations([f"n{index}" for index in range(count)]))
    keys = draw(st.permutations(names))
    edges = {name: [] for name in keys}
    pairs = [
        (a, b) for a in range(count) for b in range(count)
        if (a < b if acyclic else True)
    ]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=30)
        if pairs else st.just([])
    )
    for a, b in chosen:
        edges[names[a]].append(names[b])
    return edges


def longest_path_from(edges, weight, node) -> float:
    return weight[node] + max(
        (longest_path_from(edges, weight, successor)
         for successor in edges[node]),
        default=0.0,
    )


@st.composite
def task_sets(draw):
    """``(consumed, producer)`` over up to 8 tasks and 10 objects: a
    task reads, then updates, objects drawn with repeats (so one object
    may be read and updated); an object has a producer or none, and a
    task may consume its own product."""
    tasks = [f"t{index}" for index in range(draw(st.integers(1, 8)))]
    objects = [f"o{index}" for index in range(10)]
    producer = draw(st.dictionaries(st.sampled_from(objects),
                                    st.sampled_from(tasks)))
    consumed = {
        task: draw(st.lists(st.sampled_from(objects), max_size=6))
        + draw(st.lists(st.sampled_from(objects), max_size=3))
        for task in tasks
    }
    return consumed, producer


def brute_force_edges(consumed, producer):
    """The edge rule as stated: each task's distinct producers, first
    occurrence first, and each task's dependents in declaration order."""
    dependencies = {}
    for task, objects in consumed.items():
        upstream = [producer[obj] for obj in objects if obj in producer]
        dependencies[task] = [source for index, source in enumerate(upstream)
                              if source not in upstream[:index]]
    return dependencies, {
        task: [other for other in consumed if task in dependencies[other]]
        for task in consumed
    }


class TestDependencyEdges:
    @settings(max_examples=examples())
    @given(task_sets())
    def test_equals_the_rule_stated_by_brute_force(self, task_set):
        assert dag.dependency_edges(*task_set) == brute_force_edges(*task_set)

    def test_a_task_reading_2000_producers_keeps_them_all_in_order(self):
        producers = [f"p{index}" for index in range(2000)]
        consumed = dict.fromkeys(producers, ())
        consumed["wide"] = [f"o{index}" for index in range(2000)] * 2
        dependencies, consumers = dag.dependency_edges(consumed, {
            f"o{index}": name for index, name in enumerate(producers)
        })
        assert dependencies["wide"] == producers
        assert all(consumers[name] == ["wide"] for name in producers)

    def test_reads_and_updates_both_order_a_task(self):
        dependencies, consumers = dag.dependency_edges(
            {"make": ["raw"], "read": ["x"], "patch": ["y", "x"]},
            {"x": "make", "y": "read"},
        )
        assert dependencies == {
            "make": [], "read": ["make"], "patch": ["read", "make"],
        }
        assert consumers == {
            "make": ["read", "patch"], "read": ["patch"], "patch": [],
        }

    def test_one_edge_per_pair_however_many_objects(self):
        dependencies, consumers = dag.dependency_edges(
            {"a": [], "b": ["x", "y", "x"]}, {"x": "a", "y": "a"},
        )
        assert dependencies["b"] == ["a"]
        assert consumers["a"] == ["b"]

    def test_consuming_your_own_product_is_a_one_node_cycle(self):
        _, consumers = dag.dependency_edges({"t": ["x"]}, {"x": "t"})
        assert dag.find_cycle(consumers) == ["t", "t"]


class TestTopologicalOrder:
    @pytest.mark.parametrize("num_tasks", [6, 24, 150])
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_networkx_on_seeded_task_graphs(self, seed, num_tasks):
        graph = random_task_graph(seed, num_tasks)
        edges = task_edges(graph)
        expected = list(nx.topological_sort(to_networkx(edges)))
        assert dag.topological_order(edges) == expected
        # and the engine's graph answers from the same edges
        assert graph.topological_order() == expected

    @settings(max_examples=examples())
    @given(digraphs(acyclic=True))
    def test_equals_networkx_on_generated_dags(self, edges):
        assert dag.topological_order(edges) == list(
            nx.topological_sort(to_networkx(edges))
        )

    def test_cyclic_input_is_refused(self):
        with pytest.raises(ValueError, match="cycle"):
            dag.topological_order({"a": ["b"], "b": ["a"], "c": []})


class TestFindCycle:
    @settings(max_examples=examples())
    @given(digraphs(acyclic=False))
    def test_agrees_with_networkx_and_returns_a_closed_path(self, edges):
        cycle = dag.find_cycle(edges)
        acyclic = nx.is_directed_acyclic_graph(to_networkx(edges))
        assert bool(cycle) == (not acyclic)
        if cycle:
            assert cycle[0] == cycle[-1]
            assert len(set(cycle[:-1])) == len(cycle) - 1
            for node, successor in zip(cycle, cycle[1:]):
                assert successor in edges[node]

    def test_first_cycle_in_sorted_root_listed_successor_order(self):
        edges = {"c": ["a"], "a": ["b"], "b": ["c", "a"]}
        assert dag.find_cycle(edges) == ["a", "b", "c", "a"]

    def test_deep_chain_needs_no_recursion(self):
        depth = 4 * sys.getrecursionlimit()
        edges = {f"n{index:06d}": [f"n{index + 1:06d}"]
                 for index in range(depth)}
        edges[f"n{depth:06d}"] = []
        assert dag.find_cycle(edges) == []
        levels = dag.bottom_levels(edges, dict.fromkeys(edges, 1.0))
        assert levels["n000000"] == depth + 1


class TestReachableFrom:
    @settings(max_examples=examples())
    @given(digraphs(acyclic=False), st.data())
    def test_equals_networkx_descendants(self, edges, data):
        roots = data.draw(st.sets(st.sampled_from(sorted(edges))))
        graph = to_networkx(edges)
        expected = set(roots)
        for root in roots:
            expected |= nx.descendants(graph, root)
        assert dag.reachable_from(edges, roots) == expected


class TestBottomLevels:
    @settings(max_examples=examples())
    @given(digraphs(acyclic=True), st.data())
    def test_equals_brute_force_longest_path(self, edges, data):
        weight = {
            node: data.draw(st.floats(min_value=0.0, max_value=10.0))
            for node in edges
        }
        expected = {
            node: longest_path_from(edges, weight, node) for node in edges
        }
        assert dag.bottom_levels(edges, weight) == expected
        # and over the reversed Kahn order, as the engine folds them
        order = reversed(dag.topological_order(edges))
        assert dag.bottom_levels(edges, weight, order) == expected

    @settings(max_examples=examples())
    @given(digraphs(acyclic=False))
    def test_defined_for_every_node_of_a_cyclic_graph(self, edges):
        levels = dag.bottom_levels(edges, dict.fromkeys(edges, 1.0))
        assert set(levels) == set(edges)
        assert all(1.0 <= level <= len(edges) for level in levels.values())

    def test_cycle_closing_edges_are_left_out(self):
        # p1 <-> p2 with an independent p3, all feeding join: the walk
        # starts at p1, so p2 -> p1 is the edge that closes the cycle
        edges = {"p1": ["p2", "join"], "p2": ["p1"], "p3": ["join"],
                 "join": []}
        levels = dag.bottom_levels(edges, dict.fromkeys(edges, 1.0))
        assert levels == {"join": 1.0, "p2": 1.0, "p1": 2.0, "p3": 2.0}


def test_the_leaf_imports_neither_repro_modules_nor_networkx():
    code = (
        "import sys; before = set(sys.modules); import repro.utils.dag; "
        "new = set(sys.modules) - before; "
        "assert 'networkx' not in sys.modules; "
        "extra = {name for name in new if name.startswith('repro.') "
        "and not name.startswith('repro.utils')}; "
        "assert not extra, extra"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
