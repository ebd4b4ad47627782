"""Auto-protection: turning detections into reactions.

"Dedicated hardware monitors will detect anomalies ... activating
proper dynamic adaptation in the form of 'auto-protection'" (paper
§III-B). The engine maps incident classes to mitigations and keeps an
audit log; the runtime executor consults it to adjust the autotuner's
system state (forcing DIFT variants) or rotate keys; the other
reactions are recorded for the audit log.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.runtime.dataprotection.anomaly import Anomaly


class Reaction(enum.Enum):
    """Available mitigations."""

    LOG_ONLY = "log_only"
    FORCE_DIFT_VARIANTS = "force_dift_variants"
    REKEY = "rekey"
    QUARANTINE_NODE = "quarantine_node"
    THROTTLE = "throttle"


@dataclass
class Incident:
    """One recorded security event and its reaction."""

    kind: str
    detail: str
    reaction: Reaction
    node: str = ""


#: Default escalation table: incident kind -> reaction.
_DEFAULT_RULES: Dict[str, Reaction] = {
    "timing-anomaly": Reaction.FORCE_DIFT_VARIANTS,
    "access-pattern-anomaly": Reaction.FORCE_DIFT_VARIANTS,
    "size-anomaly": Reaction.THROTTLE,
    "flow-violation": Reaction.QUARANTINE_NODE,
    "tag-mismatch": Reaction.REKEY,
    "unknown": Reaction.LOG_ONLY,
}


class AutoProtection:
    """The reaction engine."""

    def __init__(self):
        self.rules = dict(_DEFAULT_RULES)
        self.incidents: List[Incident] = []
        self.key_generation = 0
        self.dift_forced = False

    # ------------------------------------------------------------------

    def report(self, kind: str, detail: str, node: str = "") -> Incident:
        """Record an incident and apply its reaction."""
        reaction = self.rules.get(kind, self.rules["unknown"])
        incident = Incident(
            kind=kind, detail=detail, reaction=reaction, node=node
        )
        self.incidents.append(incident)
        self._apply(incident)
        return incident

    def report_anomaly(self, anomaly: Anomaly, node: str = ""
                       ) -> Incident:
        """Classify and record an anomaly from a hardware monitor."""
        metric = anomaly.metric
        if "timing" in metric or "latency" in metric:
            kind = "timing-anomaly"
        elif "access" in metric or "stride" in metric:
            kind = "access-pattern-anomaly"
        elif "size" in metric or "volume" in metric:
            kind = "size-anomaly"
        else:
            kind = "unknown"
        return self.report(
            kind,
            f"{metric}={anomaly.value:.4g} "
            f"(z={anomaly.z_score:.1f})",
            node,
        )

    def _apply(self, incident: Incident) -> None:
        reaction = incident.reaction
        if reaction is Reaction.FORCE_DIFT_VARIANTS:
            self.dift_forced = True
        elif reaction is Reaction.REKEY:
            self.key_generation += 1

    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        """Incident counts by reaction."""
        counts: Dict[str, int] = {}
        for incident in self.incidents:
            key = incident.reaction.value
            counts[key] = counts.get(key, 0) + 1
        return counts
