"""Software authenticated encryption and cipher cost models.

A real (if simple) AEAD built from SHA-256: a counter-mode keystream
for confidentiality and a keyed tag over nonce+ciphertext for
integrity. It is functionally correct (encrypt/decrypt round-trips,
tampering is detected) and deterministic, which the tests rely on; the
point here is exercising the data-protection code paths, not
cryptographic novelty — the paper's library would use hardened cores.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Dict

from repro.errors import SecurityError

#: Software cost of each cipher in CPU cycles per byte (order-of-
#: magnitude figures for scalar implementations).
SOFTWARE_CYCLES_PER_BYTE: Dict[str, float] = {
    "aes128-gcm": 2.5,  # with AES-NI
    "aes256-gcm": 3.5,
    "chacha20-poly1305": 4.0,
    "ascon128": 12.0,
    "sha3-256": 10.0,
}

_TAG_BYTES = 16
_BLOCK = 32  # SHA-256 output size


@dataclass
class SoftwareAEAD:
    """Authenticated encryption with a named key."""

    key: bytes

    def __post_init__(self):
        if not self.key:
            raise SecurityError("empty key")

    # ------------------------------------------------------------------

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        blocks = []
        counter = 0
        while sum(len(b) for b in blocks) < length:
            blocks.append(hashlib.sha256(
                self.key + nonce + counter.to_bytes(8, "big")
            ).digest())
            counter += 1
        return b"".join(blocks)[:length]

    def _tag(self, nonce: bytes, ciphertext: bytes) -> bytes:
        return hmac.new(
            self.key, b"tag" + nonce + ciphertext, hashlib.sha256
        ).digest()[:_TAG_BYTES]

    # ------------------------------------------------------------------

    def encrypt(self, plaintext: bytes, nonce: bytes) -> bytes:
        """Return ciphertext || tag."""
        if len(nonce) < 8:
            raise SecurityError("nonce must be at least 8 bytes")
        stream = self._keystream(nonce, len(plaintext))
        ciphertext = bytes(
            p ^ s for p, s in zip(plaintext, stream)
        )
        return ciphertext + self._tag(nonce, ciphertext)

    def decrypt(self, payload: bytes, nonce: bytes) -> bytes:
        """Verify the tag and return the plaintext.

        Raises :class:`SecurityError` on tampering or wrong key/nonce.
        """
        if len(payload) < _TAG_BYTES:
            raise SecurityError("payload too short")
        ciphertext, tag = payload[:-_TAG_BYTES], payload[-_TAG_BYTES:]
        expected = self._tag(nonce, ciphertext)
        if not hmac.compare_digest(tag, expected):
            raise SecurityError("authentication tag mismatch")
        stream = self._keystream(nonce, len(ciphertext))
        return bytes(c ^ s for c, s in zip(ciphertext, stream))


def derive_key(master: bytes, context: str) -> bytes:
    """Domain-separated subkey derivation."""
    if not master:
        raise SecurityError("empty master key")
    return hashlib.sha256(master + b"|" + context.encode()).digest()
