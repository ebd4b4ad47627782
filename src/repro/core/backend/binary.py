"""Deployable artifacts: software binaries and FPGA bitstreams.

"Standard toolchains will be used to generate binaries and bitstreams
for the target devices" (paper §III-B). We model the artifacts rather
than invoke vendor toolchains: a :class:`SoftwareBinary` carries the
generated SYCL source and the architecture it was "built" for; FPGA
images reuse :class:`repro.platform.fpga.Bitstream`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Union

from repro.platform.fpga import Bitstream

_SUPPORTED_ARCHS = ("x86", "ppc64le", "arm", "riscv")


@dataclass(frozen=True)
class SoftwareBinary:
    """A compiled software variant for one CPU architecture."""

    name: str
    arch: str
    source_text: str
    threads: int = 1

    def __post_init__(self):
        if self.arch not in _SUPPORTED_ARCHS:
            raise ValueError(
                f"unsupported architecture {self.arch!r}; expected one "
                f"of {_SUPPORTED_ARCHS}"
            )

    @property
    def checksum(self) -> str:
        """Content hash standing in for the built object's identity."""
        digest = hashlib.sha256(
            f"{self.arch}:{self.threads}:{self.source_text}".encode()
        )
        return digest.hexdigest()[:16]

    @property
    def size_bytes(self) -> int:
        """Mock binary size: proportional to the source."""
        return 4096 + 12 * len(self.source_text)


@dataclass
class Artifact:
    """One deployable artifact with integrity metadata."""

    variant_id: int
    kind: str  # "binary" | "bitstream"
    payload: Union[SoftwareBinary, Bitstream]
    signed: bool = False
    signature: Optional[str] = None

    def sign(self, key: str) -> None:
        """Attach an integrity signature (HMAC-style content hash)."""
        if self.kind == "binary":
            assert isinstance(self.payload, SoftwareBinary)
            content = self.payload.checksum
        else:
            assert isinstance(self.payload, Bitstream)
            content = f"{self.payload.name}:{self.payload.size_bytes}"
        digest = hashlib.sha256(f"{key}:{content}".encode()).hexdigest()
        self.signature = digest[:32]
        self.signed = True

    def verify(self, key: str) -> bool:
        """Check the signature against the current payload."""
        if not self.signed or self.signature is None:
            return False
        expected = Artifact(
            variant_id=self.variant_id, kind=self.kind,
            payload=self.payload,
        )
        expected.sign(key)
        return expected.signature == self.signature
