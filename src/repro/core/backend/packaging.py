"""Variant packaging for the runtime system.

Bundles, per kernel, every variant's artifact plus the JSON-serializable
metadata the runtime decision maker (mARGOt, §IV) consumes: predicted
latency/energy, resource footprint, and knob descriptions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.backend.binary import Artifact
from repro.core.variants import Variant
from repro.errors import BackendError


@dataclass
class VariantPackage:
    """The deployable unit for one application: kernels × variants."""

    application: str
    variants: Dict[str, List[Variant]] = field(default_factory=dict)
    artifacts: Dict[int, Artifact] = field(default_factory=dict)
    signing_key: Optional[str] = None

    def add_variant(self, variant: Variant,
                    artifact: Optional[Artifact] = None) -> None:
        """Register a variant (and its artifact) under its kernel."""
        self.variants.setdefault(variant.kernel, []).append(variant)
        if artifact is not None:
            if self.signing_key:
                artifact.sign(self.signing_key)
            self.artifacts[variant.variant_id] = artifact

    def kernels(self) -> List[str]:
        """Kernel names with at least one packaged variant."""
        return sorted(self.variants)

    def variants_for(self, kernel: str) -> List[Variant]:
        """All packaged variants of one kernel."""
        if kernel not in self.variants:
            raise BackendError(
                f"package has no variants for kernel {kernel!r}"
            )
        return list(self.variants[kernel])

    def artifact_for(self, variant: Variant) -> Optional[Artifact]:
        """The artifact packaged with a variant, if any."""
        return self.artifacts.get(variant.variant_id)

    def verify_integrity(self) -> bool:
        """Check every signed artifact against the signing key."""
        if not self.signing_key:
            return False
        return all(
            artifact.verify(self.signing_key)
            for artifact in self.artifacts.values()
        )

    def manifest(self) -> str:
        """JSON manifest consumed by the runtime decision maker."""
        payload = {
            "application": self.application,
            "kernels": {
                kernel: [variant.to_metadata() for variant in variants]
                for kernel, variants in sorted(self.variants.items())
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)
