"""Runtime information-flow tracking across the task graph.

Complements the intra-kernel DIFT of TaintHLS with inter-task
tracking: data objects carry label sets, tasks propagate the union of
their input labels to their outputs, and egress points (sinks,
network transfers) are checked against a policy — tainted data may
only leave through an encrypting or declassifying edge.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.errors import SecurityError
from repro.workflow.graph import TaskGraph


class FlowTracker:
    """Label propagation over a workflow task graph."""

    def __init__(self, graph: TaskGraph):
        self.graph = graph
        self.labels: Dict[str, Set[str]] = {
            name: set() for name in graph.objects
        }
        self.declassified: Set[str] = set()

    # ------------------------------------------------------------------

    def taint_source(self, object_name: str, label: str) -> None:
        """Attach a label to an external input object."""
        if object_name not in self.labels:
            raise SecurityError(f"unknown object {object_name!r}")
        self.labels[object_name].add(label)

    def propagate(self) -> None:
        """Push labels through the graph in topological order."""
        for task_name in self.graph.topological_order():
            task = self.graph.tasks[task_name]
            gathered: Set[str] = set()
            for input_name in task.inputs:
                gathered |= self.labels[input_name]
            for output_name in task.outputs:
                if task.declassifies:
                    self.declassified.add(output_name)
                    self.labels[output_name] = set()
                else:
                    self.labels[output_name] = set(gathered)

    def labels_of(self, object_name: str) -> Set[str]:
        """Current labels of an object."""
        if object_name not in self.labels:
            raise SecurityError(f"unknown object {object_name!r}")
        return set(self.labels[object_name])

    # ------------------------------------------------------------------

    def check_egress(
        self,
        object_name: str,
        encrypted: bool = False,
    ) -> bool:
        """May this object leave the trust boundary?

        Tainted data may egress only when encrypted (or previously
        declassified). Returns True when allowed and raises otherwise.
        """
        labels = self.labels_of(object_name)
        if not labels or encrypted or object_name in self.declassified:
            return True
        raise SecurityError(
            f"object {object_name!r} carries labels "
            f"{sorted(labels)} and is not encrypted"
        )

    def audit(self) -> List[Tuple[str, Set[str]]]:
        """All currently tainted objects and their labels."""
        return sorted(
            (
                (name, set(labels))
                for name, labels in self.labels.items()
                if labels
            ),
            key=lambda item: item[0],
        )
