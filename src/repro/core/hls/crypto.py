"""Library of optimized cryptographic accelerator cores (paper §III-A).

EVEREST promises "a comprehensive library of optimized accelerators for
memory and near memory encryption, fitting the area, energy and
performance constraints of the platforms". Each :class:`CryptoCore`
models one such IP: area footprint, pipeline throughput, fixed latency
and power. The HLS driver instantiates the core matching the cipher the
security pass selected; the runtime data-protection layer uses the same
figures to cost in-transit encryption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import SecurityError
from repro.platform.resources import FPGAResources


@dataclass(frozen=True)
class CryptoCore:
    """One hardware crypto IP."""

    name: str
    area: FPGAResources
    bytes_per_cycle: float
    fixed_latency_cycles: int
    dynamic_watts: float

    def cycles_for(self, num_bytes: int) -> int:
        """Cycles to process ``num_bytes`` (pipeline + fixed latency)."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes == 0:
            return 0
        import math

        return self.fixed_latency_cycles + math.ceil(
            num_bytes / self.bytes_per_cycle
        )


CRYPTO_LIBRARY: Dict[str, CryptoCore] = {
    "aes128-gcm": CryptoCore(
        name="aes128-gcm",
        area=FPGAResources(luts=6_500, ffs=5_200, bram_kb=18, dsps=0),
        bytes_per_cycle=16.0,
        fixed_latency_cycles=21,
        dynamic_watts=0.9,
    ),
    "aes256-gcm": CryptoCore(
        name="aes256-gcm",
        area=FPGAResources(luts=8_900, ffs=7_000, bram_kb=18, dsps=0),
        bytes_per_cycle=16.0,
        fixed_latency_cycles=29,
        dynamic_watts=1.2,
    ),
    "chacha20-poly1305": CryptoCore(
        name="chacha20-poly1305",
        area=FPGAResources(luts=4_800, ffs=3_900, bram_kb=0, dsps=0),
        bytes_per_cycle=8.0,
        fixed_latency_cycles=16,
        dynamic_watts=0.6,
    ),
    "ascon128": CryptoCore(
        name="ascon128",
        area=FPGAResources(luts=2_100, ffs=1_600, bram_kb=0, dsps=0),
        bytes_per_cycle=2.7,
        fixed_latency_cycles=12,
        dynamic_watts=0.25,
    ),
    "sha3-256": CryptoCore(
        name="sha3-256",
        area=FPGAResources(luts=5_400, ffs=4_300, bram_kb=0, dsps=0),
        bytes_per_cycle=4.5,
        fixed_latency_cycles=24,
        dynamic_watts=0.7,
    ),
}


def core_for(cipher: str) -> CryptoCore:
    """Look up a crypto core; raises :class:`SecurityError` if unknown."""
    core = CRYPTO_LIBRARY.get(cipher)
    if core is None:
        raise SecurityError(
            f"no crypto core for cipher {cipher!r}; available: "
            f"{sorted(CRYPTO_LIBRARY)}"
        )
    return core
