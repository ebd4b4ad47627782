"""Application annotations: data characteristics, NFRs, security.

These carry the "extra characteristics of the algorithms and data"
(paper §I) from the application expert to the compiler and runtime:

* :class:`DataAnnotation` describes a dataset or stream — velocity,
  locality — and drives placement and memory customization;
* :class:`Requirement` is a non-functional target (latency bound,
  throughput floor, energy budget) checked by the DSE and runtime;
* :class:`SecurityAnnotation` marks confidentiality/integrity needs
  that the security passes and the data-protection layer enforce.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import SpecificationError
from repro.utils.validation import check_positive


class Locality(enum.Enum):
    """Where the data naturally lives (paper Fig. 3 tiers)."""

    ENDPOINT = "endpoint"
    EDGE = "edge"
    CLOUD = "cloud"
    ANY = "any"


@dataclass(frozen=True)
class DataAnnotation:
    """Characteristics of a dataset or stream."""

    name: str
    velocity_bytes_per_s: float = 0.0
    locality: Locality = Locality.ANY

    def __post_init__(self):
        if self.velocity_bytes_per_s < 0:
            raise SpecificationError("velocity must be non-negative")


class RequirementKind(enum.Enum):
    """What the requirement bounds."""

    LATENCY = "latency"  # seconds, upper bound
    THROUGHPUT = "throughput"  # items/second, lower bound
    ENERGY = "energy"  # joules per invocation, upper bound
    DEADLINE = "deadline"  # seconds for the whole pipeline, upper bound


@dataclass(frozen=True)
class Requirement:
    """A non-functional requirement with a numeric target."""

    kind: RequirementKind
    value: float

    def __post_init__(self):
        check_positive("requirement value", self.value)

    def satisfied_by(self, measured: float) -> bool:
        """Check a measurement against the bound direction."""
        if self.kind is RequirementKind.THROUGHPUT:
            return measured >= self.value
        return measured <= self.value


class Sensitivity(enum.Enum):
    """Confidentiality level of a piece of data."""

    PUBLIC = "public"
    INTERNAL = "internal"
    CONFIDENTIAL = "confidential"
    SECRET = "secret"


@dataclass(frozen=True)
class SecurityAnnotation:
    """Protection needs for a dataset flowing through the pipeline."""

    sensitivity: Sensitivity = Sensitivity.PUBLIC
    encrypt_in_transit: bool = False
