"""Task graphs and data objects.

A :class:`TaskGraph` is a DAG of :class:`WorkflowTask` nodes connected
through named :class:`DataObject` edges, mirroring HyperLoom's plan
model: tasks declare the objects they consume and produce; objects
carry sizes so schedulers can reason about movement cost.

Which task waits for which is not derived here: the edge rule (*B
depends on A when B reads or updates an object A produces*) and the
graph queries live in :mod:`repro.utils.dag`, shared with the DAG
linter and the concurrency analyzer. The graph keeps the rule's
result as an index, built on the first query after a change.

:func:`random_task_graph` is the seeded generator the chaos property
tests, the service's ``graph`` / ``chaos`` jobs and the benchmarks
draw their graphs from: shape, durations and object sizes are fully
determined by an integer seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import WorkflowError
from repro.utils import dag
from repro.utils.validation import check_non_negative, check_positive


@dataclass
class DataObject:
    """A named piece of data flowing between tasks."""

    name: str
    size_bytes: int = 0
    producer: Optional[str] = None  # task name; None = external input
    locality: str = ""  # preferred/initial node name

    def __post_init__(self):
        check_non_negative("size_bytes", self.size_bytes)


@dataclass
class WorkflowTask:
    """One schedulable unit of work."""

    name: str
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    #: objects read *and* rewritten in place: the task depends on the
    #: object's producer, but is unordered w.r.t. other updaters and
    #: readers — a hazard the concurrency analyzer reports (RACE00x)
    updates: List[str] = field(default_factory=list)
    duration_s: float = 1e-3  # nominal duration on a reference core
    cpus: int = 1
    kernel: str = ""  # optional compiled-kernel binding
    payload: Optional[Callable] = None  # optional direct callable
    #: the task's outputs carry none of its inputs' taint labels
    declassifies: bool = False

    def __post_init__(self):
        check_positive("cpus", self.cpus)
        check_non_negative("duration_s", self.duration_s)


class TaskGraph:
    """A validated DAG of tasks and data objects."""

    def __init__(self, name: str = "graph"):
        self.name = name
        self.tasks: Dict[str, WorkflowTask] = {}
        self.objects: Dict[str, DataObject] = {}
        #: dependency index; dropped whenever a task or object is added
        self._adjacency = None
        #: the index's Kahn order, kept beside it as its acyclicity verdict
        self._order: Optional[List[str]] = None

    # ------------------------------------------------------------------

    def add_object(self, obj: DataObject) -> DataObject:
        """Register a data object."""
        if obj.name in self.objects:
            raise WorkflowError(f"duplicate data object {obj.name!r}")
        self.objects[obj.name] = obj
        self._adjacency = None
        return obj

    def add_task(self, task: WorkflowTask) -> WorkflowTask:
        """Register a task; its outputs are created as objects."""
        if task.name in self.tasks:
            raise WorkflowError(f"duplicate task {task.name!r}")
        for input_name in task.inputs:
            if input_name not in self.objects:
                raise WorkflowError(
                    f"task {task.name!r}: unknown input object "
                    f"{input_name!r}"
                )
        for updated_name in task.updates:
            if updated_name not in self.objects:
                raise WorkflowError(
                    f"task {task.name!r}: unknown updated object "
                    f"{updated_name!r}"
                )
        for output_name in task.outputs:
            if output_name in self.objects:
                raise WorkflowError(
                    f"task {task.name!r}: output {output_name!r} "
                    f"already produced elsewhere"
                )
            self.objects[output_name] = DataObject(
                name=output_name, producer=task.name
            )
        self.tasks[task.name] = task
        self._adjacency = None
        return task

    def set_object_size(self, name: str, size_bytes: int) -> None:
        """Set the size of an object (e.g. after estimation)."""
        if name not in self.objects:
            raise WorkflowError(f"unknown object {name!r}")
        check_non_negative("size_bytes", size_bytes)
        self.objects[name].size_bytes = size_bytes

    # ------------------------------------------------------------------

    def _index(self) -> Tuple[Dict[str, List[str]], Dict[str, List[str]]]:
        """``(dependencies, consumers)`` per task, built on the first
        query after a change (:func:`repro.utils.dag.dependency_edges`)."""
        if self._adjacency is None:
            producer: Dict[str, str] = {}
            for obj in self.objects.values():
                if obj.producer is None:
                    continue
                if obj.producer not in self.tasks:
                    raise WorkflowError(
                        f"object {obj.name!r} names unknown producer "
                        f"{obj.producer!r}"
                    )
                producer[obj.name] = obj.producer
            self._order = None
            self._adjacency = dag.dependency_edges(
                {
                    task.name: list(task.inputs) + list(task.updates)
                    for task in self.tasks.values()
                },
                producer,
            )
        return self._adjacency

    def dependencies(self, task_name: str) -> List[str]:
        """Names of tasks that must finish before this one starts."""
        return list(self._index()[0][task_name])

    def consumers(self, task_name: str) -> List[str]:
        """Tasks consuming or updating any output of the given task."""
        return list(self._index()[1][task_name])

    def validate(self) -> None:
        """Check that every producer exists and nothing is cyclic.

        One Kahn walk per change to the graph gives the verdict and the
        execution order at once, kept beside the index; a cycle is
        searched for only to name it.
        """
        consumers = self._index()[1]
        if self._order is None:
            try:
                self._order = dag.topological_order(consumers)
            except ValueError:
                cycle = " -> ".join(dag.find_cycle(consumers))
                raise WorkflowError(
                    f"workflow contains a cycle: {cycle}") from None

    def topological_order(self) -> List[str]:
        """Tasks in a valid execution order."""
        self.validate()
        return list(self._order)

    # ------------------------------------------------------------------

    def b_levels(self) -> Dict[str, float]:
        """HyperLoom-style bottom levels: longest path to a sink.

        The b-level of a task is its own duration plus the maximum
        b-level of its consumers; scheduling the largest first keeps
        the critical path moving.
        """
        self.validate()
        return dag.bottom_levels(
            self._index()[1],
            {name: task.duration_s for name, task in self.tasks.items()},
            reversed(self._order),
        )

    def total_work(self) -> float:
        """Sum of all task durations (serial execution time)."""
        return sum(task.duration_s for task in self.tasks.values())

    def digest(self) -> str:
        """Content hash of the graph's structure, sizes and durations.

        Excludes payload callables (not serializable, not part of the
        schedule); two graphs with equal digests execute identically
        under a given pool and policy, which is what lets a resumed
        run verify it was rebuilt from the same recipe (WF009).
        """
        payload = {
            "name": self.name,
            "tasks": [
                {
                    "name": task.name,
                    "inputs": list(task.inputs),
                    "outputs": list(task.outputs),
                    "updates": list(task.updates),
                    "duration_s": task.duration_s,
                    "cpus": task.cpus,
                    "kernel": task.kernel,
                }
                for _, task in sorted(self.tasks.items())
            ],
            "objects": [
                {
                    "name": obj.name,
                    "size_bytes": obj.size_bytes,
                    "producer": obj.producer,
                    "locality": obj.locality,
                }
                for _, obj in sorted(self.objects.items())
            ],
        }
        serialized = json.dumps(payload, sort_keys=True,
                                separators=(",", ":"))
        return hashlib.sha256(serialized.encode()).hexdigest()[:16]

    def external_inputs(self) -> List[DataObject]:
        """Objects with no producer (fed from outside)."""
        return [
            obj for obj in self.objects.values() if obj.producer is None
        ]

    def __len__(self) -> int:
        return len(self.tasks)


_MAX_OBJECT_BYTES = 2_000_000


def random_task_graph(seed: int, num_tasks: int = 12) -> TaskGraph:
    """A random DAG of ``num_tasks`` tasks, deterministic in ``seed``.

    Two external inputs; each task reads one to three objects produced
    earlier (or the inputs), so the result is acyclic by construction;
    every earlier object remains a candidate input, producing the mix
    of chains, fans and diamonds the chaos invariants should hold over.
    A task takes 1-2 CPUs for 0.2-1.5 s; an object holds up to 2 MB.
    """
    if num_tasks < 1:
        raise WorkflowError(
            f"a task graph needs at least one task, got {num_tasks}")
    rng = random.Random(seed)
    graph = TaskGraph(f"chaos-graph-{seed}")
    available = []
    for index in range(2):
        name = f"in{index}"
        graph.add_object(DataObject(
            name, size_bytes=rng.randrange(10_000, _MAX_OBJECT_BYTES)
        ))
        available.append(name)
    for index in range(num_tasks):
        fan_in = rng.randint(1, min(3, len(available)))
        inputs = rng.sample(available, fan_in)
        output = f"o{index}"
        graph.add_task(WorkflowTask(
            f"t{index}",
            inputs=inputs,
            outputs=[output],
            duration_s=rng.uniform(0.2, 1.5),
            cpus=rng.randint(1, 2),
        ))
        graph.set_object_size(
            output, rng.randrange(10_000, _MAX_OBJECT_BYTES)
        )
        available.append(output)
    return graph
