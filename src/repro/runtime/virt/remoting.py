"""API remoting: the guest-to-accelerator invocation path.

"API remoting techniques will improve data exchanges" (paper §IV).
Three paths with different costs:

* ``PASSTHROUGH`` — the device is mapped into the guest (SR-IOV /
  coherent attach): per-call overhead is a doorbell write;
* ``VIRTIO`` — paravirtualized split driver: one vmexit plus a bounce
  copy of the payload through shared rings;
* ``REMOTE`` — the accelerator lives on another node (cloudFPGA):
  the payload crosses the network link.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import VirtualizationError
from repro.platform.interconnect import Link
from repro.utils.validation import check_non_negative

_VMEXIT_S = 4e-6
_DOORBELL_S = 0.3e-6
_BOUNCE_BANDWIDTH = 12e9  # bytes/second for guest<->host copies


class RemotingMode(enum.Enum):
    """How the guest reaches the accelerator."""

    PASSTHROUGH = "passthrough"
    VIRTIO = "virtio"
    REMOTE = "remote"


@dataclass
class APIRemoting:
    """Cost model + accounting for one remoting channel."""

    mode: RemotingMode
    link: Optional[Link] = None  # required for REMOTE
    calls: int = field(default=0, init=False)
    bytes_forwarded: int = field(default=0, init=False)
    overhead_seconds: float = field(default=0.0, init=False)

    def __post_init__(self):
        if self.mode is RemotingMode.REMOTE and self.link is None:
            raise VirtualizationError(
                "REMOTE remoting requires a network link"
            )

    def invocation_overhead(self, payload_bytes: int) -> float:
        """Seconds of overhead for one accelerator call."""
        check_non_negative("payload_bytes", payload_bytes)
        if self.mode is RemotingMode.PASSTHROUGH:
            return _DOORBELL_S
        if self.mode is RemotingMode.VIRTIO:
            return 2 * _VMEXIT_S + payload_bytes / _BOUNCE_BANDWIDTH
        # REMOTE: request + response over the link
        return 2 * self.link.transfer_time(payload_bytes // 2)

    def call(self, payload_bytes: int) -> float:
        """Account one call; returns its overhead in seconds."""
        overhead = self.invocation_overhead(payload_bytes)
        self.calls += 1
        self.bytes_forwarded += payload_bytes
        self.overhead_seconds += overhead
        return overhead
