"""The dependency relation of a task set, and the queries over it.

Tasks declare the objects they consume and produce (HyperLoom's plan
model); *who waits for whom* follows from one rule, written once in
:func:`dependency_edges`. The workflow engine's ``TaskGraph``, the DAG
linter and the concurrency analyzer all derive their edges here and
ask the same four questions of them — :func:`find_cycle`,
:func:`reachable_from`, :func:`topological_order` and
:func:`bottom_levels` — over ``edges: {node: successors}``, in which
every node is a key.

A leaf module: it imports nothing from ``repro``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

Edges = Mapping[str, Sequence[str]]


def dependency_edges(
    consumed: Mapping[str, Iterable[str]],
    producer: Mapping[str, str],
) -> Tuple[Dict[str, List[str]], Dict[str, List[str]]]:
    """The edge rule: B depends on A when B reads or updates an object
    A produces.

    ``consumed`` lists, per task, the objects it reads or updates;
    ``producer`` names the task making each object (objects without an
    entry come from outside). Returns ``(dependencies, consumers)``:
    each task's distinct upstream tasks in the order it first consumes
    their objects, and each task's downstream tasks in declaration
    order. One loop over each task's objects fills both maps; the
    dedupe is a set, so a task's cost stays linear in its fan-in. A
    task consuming its own product depends on itself — a one-node
    cycle.
    """
    dependencies: Dict[str, List[str]] = {}
    consumers: Dict[str, List[str]] = {task: [] for task in consumed}
    for task, objects in consumed.items():
        upstream: List[str] = []
        seen: Set[str] = set()
        for obj in objects:
            source = producer.get(obj)
            if source is not None and source not in seen:
                seen.add(source)
                upstream.append(source)
                consumers[source].append(task)
        dependencies[task] = upstream
    return dependencies, consumers


def _depth_first(edges: Edges) -> Tuple[List[str], List[str]]:
    """Post-order of a depth-first walk (roots in sorted order,
    successors as listed) and the first cycle it closes, as
    ``[n0, n1, ..., n0]`` (or [])."""
    postorder: List[str] = []
    cycle: List[str] = []
    on_path: Dict[str, bool] = {}  # visited nodes; True until left
    path: List[str] = []
    pending = [iter(sorted(edges))]  # the roots, then path's successors
    while pending:
        for successor in pending[-1]:
            if successor not in on_path:
                on_path[successor] = True
                path.append(successor)
                pending.append(iter(edges[successor]))
                break
            if on_path[successor] and not cycle:
                cycle = path[path.index(successor):] + [successor]
        else:
            pending.pop()
            if path:
                on_path[path[-1]] = False
                postorder.append(path.pop())
    return postorder, cycle


def find_cycle(edges: Edges) -> List[str]:
    """First dependency cycle found, as a closed node path (or [])."""
    return _depth_first(edges)[1]


def reachable_from(edges: Edges, roots: Iterable[str]) -> Set[str]:
    """All nodes reachable from the roots (roots included)."""
    seen = set(roots)
    frontier = list(seen)
    while frontier:
        for successor in edges[frontier.pop()]:
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return seen


def topological_order(edges: Edges) -> List[str]:
    """Nodes with every edge pointing forward: Kahn's algorithm, first
    freed first out, its in-degrees counted in one pass over the edges.

    This is ``networkx.topological_sort``'s order (generation by
    generation) for the digraph with the same node and edge insertion
    order — the workflow engine's initial ready list, and so part of
    every trace digest.
    """
    indegree = dict.fromkeys(edges, 0)
    for successors in edges.values():
        for successor in successors:
            indegree[successor] += 1
    order = [node for node, degree in indegree.items() if not degree]
    for node in order:  # grows as nodes become free
        for successor in edges[node]:
            indegree[successor] -= 1
            if not indegree[successor]:
                order.append(successor)
    if len(order) != len(edges):
        raise ValueError("no topological order: the graph has a cycle")
    return order


def bottom_levels(edges: Edges, weight: Mapping[str, float],
                  order: Optional[Iterable[str]] = None) -> Dict[str, float]:
    """Longest weighted path from each node to a sink, the node's own
    weight included (HyperLoom's b-level).

    ``order`` lists every node after its successors (a reversed
    :func:`topological_order`); by default it is the post-order of the
    depth-first walk, which is defined on cyclic input too: the edges
    that close a cycle in that walk are left out. A successor not yet
    levelled is skipped, which only cyclic input (or an ``order`` that
    breaks the rule) has; a sink's level is its own weight.
    """
    levels: Dict[str, float] = {}
    for node in _depth_first(edges)[0] if order is None else order:
        levels[node] = weight[node] + max(
            [levels[successor] for successor in edges[node]
             if successor in levels] or (0.0,)
        )
    return levels
