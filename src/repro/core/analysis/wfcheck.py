"""Workflow-DAG linting: structural defects in task graphs.

The workflow engine validates graphs *incrementally* while they are
built (``TaskGraph.add_task`` rejects unknown inputs immediately);
this linter instead takes a complete description — however it was
assembled — and reports every defect at once through the diagnostics
layer:

* WF001 — dependency cycle (with the cycle spelled out);
* WF002 — a task consumes (reads or updates) an object that is
  neither an external input nor produced by any task;
* WF003 — a task requests more CPUs than any worker provides;
* WF004 — two producers for the same data object;
* WF005 — duplicate task names;
* WF006 — a task can never run because an upstream object is
  unproducible (warning; the root cause is the WF002 error).

Edges come from :func:`repro.utils.dag.dependency_edges` — the rule
the workflow engine schedules by, so a task is ordered after the
producer of everything it lists under ``inputs`` *or* ``updates`` —
and cycles and starvation from that module's queries.

It accepts a built :class:`~repro.workflow.graph.TaskGraph`, or a
plain JSON-style mapping (see :func:`lint_workflow_spec`) so defective
graphs that the builder API would reject can still be linted — e.g.
specs written by hand or generated by external tools.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.analysis.diagnostics import Diagnostics
from repro.utils import dag


@dataclass
class TaskSpec:
    """One task as the linter sees it."""

    name: str
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    cpus: int = 1
    #: objects rewritten in place: ordered after their producer
    updates: List[str] = field(default_factory=list)


@dataclass
class WorkerSpec:
    """One worker's advertised capacity."""

    name: str
    cpus: int = 1


def lint_workflow(
    tasks: Sequence[TaskSpec],
    externals: Sequence[str] = (),
    workers: Optional[Sequence[WorkerSpec]] = None,
    name: str = "workflow",
    diagnostics: Optional[Diagnostics] = None,
) -> Diagnostics:
    """Run every DAG check; returns the diagnostics."""
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()

    # -- WF005: duplicate task names -----------------------------------
    seen: Set[str] = set()
    unique: List[TaskSpec] = []
    for task in tasks:
        if task.name in seen:
            diagnostics.error(
                "WF005",
                f"task name {task.name!r} is declared more than once",
                anchor=f"{name}/{task.name}",
                analysis="dag-lint",
            )
            continue
        seen.add(task.name)
        unique.append(task)

    # -- WF004: duplicate producers ------------------------------------
    producer: Dict[str, str] = {}
    external_set = set(externals)
    for task in unique:
        for output in task.outputs:
            if output in external_set:
                diagnostics.error(
                    "WF004",
                    f"object {output!r} is declared external but also "
                    f"produced by task {task.name!r}",
                    anchor=f"{name}/{task.name}",
                    analysis="dag-lint",
                )
            elif output in producer:
                diagnostics.error(
                    "WF004",
                    f"object {output!r} is produced by both "
                    f"{producer[output]!r} and {task.name!r}",
                    anchor=f"{name}/{task.name}",
                    analysis="dag-lint",
                )
            else:
                producer[output] = task.name

    # -- WF002: unproducible inputs ------------------------------------
    broken: Set[str] = set()  # tasks with a missing input
    consumed = {
        task.name: list(task.inputs) + list(task.updates)
        for task in unique
    }
    for task in unique:
        for input_name in consumed[task.name]:
            if input_name in external_set or input_name in producer:
                continue
            broken.add(task.name)
            diagnostics.error(
                "WF002",
                f"task {task.name!r} consumes {input_name!r} which no "
                "task produces and no external input provides",
                anchor=f"{name}/{task.name}",
                analysis="dag-lint",
            )

    # -- WF001: cycles --------------------------------------------------
    _, edges = dag.dependency_edges(consumed, producer)
    cycle = dag.find_cycle(edges)
    if cycle:
        rendered = " -> ".join(cycle)
        diagnostics.error(
            "WF001",
            f"dependency cycle: {rendered}",
            anchor=f"{name}/{cycle[0]}",
            analysis="dag-lint",
        )

    # -- WF003: capacity -------------------------------------------------
    if workers:
        largest = max(worker.cpus for worker in workers)
        for task in unique:
            if task.cpus > largest:
                diagnostics.error(
                    "WF003",
                    f"task {task.name!r} requests {task.cpus} cpus but "
                    f"the largest worker offers {largest}",
                    anchor=f"{name}/{task.name}",
                    analysis="dag-lint",
                )

    # -- WF006: tasks starved by unproducible objects ---------------------
    if broken and not cycle:
        downstream = dag.reachable_from(edges, broken)
        for task_name in sorted(downstream - broken):
            diagnostics.warning(
                "WF006",
                f"task {task_name!r} can never run: an upstream input "
                "is unproducible",
                anchor=f"{name}/{task_name}",
                analysis="dag-lint",
            )
    return diagnostics


# ----------------------------------------------------------------------
# adapters
# ----------------------------------------------------------------------


def lint_task_graph(graph, workers=None,
                    diagnostics: Optional[Diagnostics] = None
                    ) -> Diagnostics:
    """Lint a built :class:`~repro.workflow.graph.TaskGraph`.

    ``workers`` may be :class:`~repro.workflow.worker.Worker` objects
    or anything with ``name``/``cpus`` attributes.
    """
    tasks = [
        TaskSpec(
            name=task.name,
            inputs=list(task.inputs),
            outputs=list(task.outputs),
            cpus=task.cpus,
            updates=list(task.updates),
        )
        for task in graph.tasks.values()
    ]
    externals = [
        obj.name for obj in graph.objects.values()
        if obj.producer is None
    ]
    worker_specs = None
    if workers is not None:
        worker_specs = [
            WorkerSpec(name=worker.name, cpus=worker.cpus)
            for worker in workers
        ]
    return lint_workflow(
        tasks, externals, worker_specs,
        name=getattr(graph, "name", "workflow"),
        diagnostics=diagnostics,
    )


def _contract_of(entry) -> Optional[Dict]:
    """Normalize one ``types`` contract value, or None if malformed."""
    if not isinstance(entry, dict):
        return None
    contract: Dict[str, object] = {}
    shape = entry.get("shape")
    if isinstance(shape, list):
        contract["shape"] = [int(dim) for dim in shape]
    dtype = entry.get("dtype")
    if isinstance(dtype, str):
        contract["dtype"] = dtype
    return contract


def _render_spec_shape(shape) -> str:
    return "x".join(str(dim) for dim in shape) or "<>"


def lint_spec_contracts(spec: Dict,
                        diagnostics: Optional[Diagnostics] = None
                        ) -> Diagnostics:
    """Check optional per-object type declarations across a spec DAG.

    A task entry (and the spec's top level, for externals) may carry a
    ``types`` section declaring the shape/dtype of data objects::

        {"types": {"a": {"shape": [64, 32], "dtype": "f32"}}}

    A producer's declaration of an object it outputs (or the top-level
    declaration of an external) is the contract; a consumer declaring
    different expectations for that object is flagged — WF010 for a
    shape disagreement, WF011 for a dtype one. Objects only one side
    describes are skipped: the contract check is opt-in per object.
    """
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    name = str(spec.get("name", "workflow"))
    tasks = spec.get("tasks", [])
    if not isinstance(tasks, list):
        return diagnostics

    declared: Dict[str, Tuple[str, Dict]] = {}
    top = spec.get("types")
    if isinstance(top, dict):
        for obj, entry in top.items():
            contract = _contract_of(entry)
            if contract:
                declared[str(obj)] = ("externals", contract)
    for index, entry in enumerate(tasks):
        if not isinstance(entry, dict):
            continue
        task = str(entry.get("name", f"task{index}"))
        types = entry.get("types")
        if not isinstance(types, dict):
            continue
        outputs = {str(item) for item in entry.get("outputs", [])}
        for obj, contract_entry in types.items():
            if str(obj) not in outputs:
                continue
            contract = _contract_of(contract_entry)
            if contract:
                declared[str(obj)] = (task, contract)

    for index, entry in enumerate(tasks):
        if not isinstance(entry, dict):
            continue
        task = str(entry.get("name", f"task{index}"))
        types = entry.get("types")
        if not isinstance(types, dict):
            continue
        anchor = f"{name}/{task}"
        for obj in entry.get("inputs", []):
            obj = str(obj)
            expected = _contract_of(types.get(obj))
            produced = declared.get(obj)
            if not expected or produced is None:
                continue
            producer, actual = produced
            if producer == task:
                continue
            if (
                "shape" in expected and "shape" in actual
                and expected["shape"] != actual["shape"]
            ):
                diagnostics.error(
                    "WF010",
                    f"task {task!r} expects {obj!r} with shape "
                    f"{_render_spec_shape(expected['shape'])} but "
                    f"{producer} produces "
                    f"{_render_spec_shape(actual['shape'])}",
                    anchor=anchor, analysis="dag-lint",
                )
                continue
            if (
                "dtype" in expected and "dtype" in actual
                and expected["dtype"] != actual["dtype"]
            ):
                diagnostics.error(
                    "WF011",
                    f"task {task!r} expects {obj!r} with dtype "
                    f"{expected['dtype']} but {producer} produces "
                    f"{actual['dtype']}",
                    anchor=anchor, analysis="dag-lint",
                )
    return diagnostics


def lint_workflow_spec(spec: Dict,
                       diagnostics: Optional[Diagnostics] = None
                       ) -> Diagnostics:
    """Lint a JSON-style workflow description.

    Expected shape (all sections optional except ``tasks``)::

        {
          "name": "demo",
          "externals": ["raw"],
          "tasks": [
            {"name": "t", "inputs": ["raw"], "outputs": ["a"],
             "cpus": 2}
          ],
          "workers": [{"name": "w0", "cpus": 4}]
        }

    Task entries (and the spec top level) may additionally declare
    per-object ``types`` contracts, checked producer-against-consumer
    by :func:`lint_spec_contracts` (WF010/WF011).
    """
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    lint_spec_contracts(spec, diagnostics)
    tasks = [
        TaskSpec(
            name=str(entry.get("name", f"task{index}")),
            inputs=[str(item) for item in entry.get("inputs", [])],
            outputs=[str(item) for item in entry.get("outputs", [])],
            cpus=int(entry.get("cpus", 1)),
            updates=[str(item) for item in entry.get("updates", [])],
        )
        for index, entry in enumerate(spec.get("tasks", []))
    ]
    workers = [
        WorkerSpec(
            name=str(entry.get("name", f"w{index}")),
            cpus=int(entry.get("cpus", 1)),
        )
        for index, entry in enumerate(spec.get("workers", []))
    ] or None
    return lint_workflow(
        tasks,
        externals=[str(item) for item in spec.get("externals", [])],
        workers=workers,
        name=str(spec.get("name", "workflow")),
        diagnostics=diagnostics,
    )
