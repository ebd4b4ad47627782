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

:class:`TaskSpec` is the one parsed view of a task — this linter and
the concurrency analyzer (:mod:`.concurrency`) both read it — filled
by :func:`tasks_from_graph` or :func:`tasks_from_spec`. The spec
reader never raises on JSON-shaped input: a malformed section, entry
or field is one ``DSL001`` naming it, that entry is skipped and the
rest is linted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.diagnostics import Diagnostics
from repro.utils import dag


@dataclass
class TaskSpec:
    """One workflow task as the static analyses see it, under the
    JSON spec's own field names.

    ``inputs``/``outputs`` are object names; ``updates`` are objects
    the task reads *and* rewrites in place (so it both depends on the
    object's producer and conflicts with every other toucher).
    ``acquires`` is the ordered list of ``(resource, units)``
    acquisitions the task performs before running.
    """

    name: str
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    updates: List[str] = field(default_factory=list)
    cpus: int = 1
    acquires: List[Tuple[str, int]] = field(default_factory=list)
    duration_s: float = 1e-3
    order_sensitive: bool = False

    def all_writes(self) -> List[str]:
        """Objects this task writes (produced or updated in place)."""
        return list(self.outputs) + list(self.updates)

    def all_reads(self) -> List[str]:
        """Objects this task reads (consumed or updated in place)."""
        return list(self.inputs) + list(self.updates)


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
    consumed = {task.name: task.all_reads() for task in unique}
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
# readers: a built graph or a JSON spec -> TaskSpec
# ----------------------------------------------------------------------


def tasks_from_graph(graph) -> List[TaskSpec]:
    """The tasks of a built :class:`~repro.workflow.graph.TaskGraph`,
    which acquire nothing and are not order-sensitive (only a JSON
    spec declares ``acquires`` / ``order_sensitive``)."""
    return [
        TaskSpec(
            name=task.name,
            inputs=list(task.inputs),
            outputs=list(task.outputs),
            updates=list(task.updates),
            cpus=task.cpus,
            duration_s=task.duration_s,
        )
        for task in graph.tasks.values()
    ]


def _names(value) -> List[str]:
    if not isinstance(value, list):
        raise TypeError  # a bare string would read as its characters
    return [str(item) for item in value]


def _acquires(value) -> List[Tuple[str, int]]:
    if not isinstance(value, list):
        raise TypeError
    acquires: List[Tuple[str, int]] = []
    for item in value:
        if isinstance(item, dict):
            item = [item.get("resource", ""), item.get("units", 1)]
        if not isinstance(item, (list, tuple)) or not 1 <= len(item) <= 2:
            raise TypeError
        acquires.append(
            (str(item[0]), int(item[1]) if len(item) > 1 else 1))
    return acquires


#: ``key -> (default, convert, what the message says is expected)``
_TASK_FIELDS = {
    "inputs": ([], _names, "a list of names"),
    "outputs": ([], _names, "a list of names"),
    "updates": ([], _names, "a list of names"),
    "cpus": (1, int, "an integer"),
    "acquires": ([], _acquires, "a list of [resource, units] pairs"),
    "duration_s": (1e-3, float, "a number"),
    "order_sensitive": (False, bool, "a boolean"),
}


def _malformed(diagnostics: Diagnostics, anchor: str, message: str) -> None:
    """One DSL001 per malformed piece of a spec, however many of the
    analyses sharing ``diagnostics`` read it."""
    if not any(
        item.code == "DSL001" and item.anchor == anchor
        and item.message == message for item in diagnostics
    ):
        diagnostics.error(
            "DSL001", message, anchor=anchor, analysis="loader")


def spec_entries(
    spec: Dict, section: str, prefix: str, fields: Dict,
    diagnostics: Diagnostics,
) -> Iterator[Tuple[Dict, Dict]]:
    """``(entry, values)`` per well-formed entry of one list section
    (``tasks``, ``workers``, ``resources``) of a spec.

    ``fields`` maps a key to ``(default, convert, expected)``;
    ``values`` holds the converted fields (``null`` reads as absent)
    and the entry's ``name``, ``<prefix><index>`` when it has none.
    A section that is not a list, an entry that is not an object and
    an entry with a field ``convert`` rejects are each one DSL001
    anchored ``<spec>/<section>[<index>]`` and skipped.
    """
    anchor = f"{spec.get('name', 'workflow')}/{section}"
    entries = spec.get(section, [])
    if not isinstance(entries, list):
        _malformed(
            diagnostics, anchor,
            f"{section!r} must be a list of objects, not "
            f"{type(entries).__name__}")
        return
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            _malformed(
                diagnostics, f"{anchor}[{index}]",
                f"entry must be an object, not {type(entry).__name__}")
            continue
        values = {"name": str(entry.get("name", f"{prefix}{index}"))}
        problems: List[str] = []
        for key, (default, convert, expected) in fields.items():
            raw = entry.get(key)
            try:
                values[key] = convert(default if raw is None else raw)
            except (TypeError, ValueError):
                problems.append(f"{key!r} must be {expected}")
        if problems:
            _malformed(
                diagnostics, f"{anchor}[{index}]", "; ".join(problems))
        else:
            yield entry, values


def tasks_from_spec(spec: Dict, diagnostics: Diagnostics) -> List[TaskSpec]:
    """The well-formed ``tasks`` entries of a JSON-style description."""
    return [
        TaskSpec(**values) for _, values
        in spec_entries(spec, "tasks", "task", _TASK_FIELDS, diagnostics)
    ]


def _contract_of(entry) -> Optional[Dict]:
    """Normalize one ``types`` contract value, or None if malformed."""
    if not isinstance(entry, dict):
        return None
    contract: Dict[str, object] = {}
    shape = entry.get("shape")
    if isinstance(shape, list):
        try:
            contract["shape"] = [int(dim) for dim in shape]
        except (TypeError, ValueError):
            return None
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
    typed = [
        (values["name"], values, entry["types"]) for entry, values
        in spec_entries(spec, "tasks", "task", _TASK_FIELDS, diagnostics)
        if isinstance(entry.get("types"), dict)
    ]

    declared: Dict[str, Tuple[str, Dict]] = {}
    top = spec.get("types")
    if isinstance(top, dict):
        for obj, entry in top.items():
            contract = _contract_of(entry)
            if contract:
                declared[str(obj)] = ("externals", contract)
    for task, values, types in typed:
        for obj, contract_entry in types.items():
            if str(obj) not in values["outputs"]:
                continue
            contract = _contract_of(contract_entry)
            if contract:
                declared[str(obj)] = (task, contract)

    for task, values, types in typed:
        anchor = f"{name}/{task}"
        for obj in values["inputs"]:
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
    name = str(spec.get("name", "workflow"))
    workers = [
        WorkerSpec(**values) for _, values in spec_entries(
            spec, "workers", "w", {"cpus": (1, int, "an integer")},
            diagnostics)
    ] or None
    externals = spec.get("externals")
    try:
        externals = _names([] if externals is None else externals)
    except TypeError:
        externals = []
        _malformed(diagnostics, f"{name}/externals",
                   "'externals' must be a list of names")
    return lint_workflow(
        tasks_from_spec(spec, diagnostics), externals, workers,
        name=name, diagnostics=diagnostics,
    )
