"""Content-addressed digests for IR modules.

The printer assigns stable per-scope value names, so its output is a
canonical rendering of a module's structure: two modules print
identically iff they hold the same operations, attributes and types in
the same order. Hashing that text gives a *content* key — unlike
``id()`` it survives garbage collection, is never recycled, and is
identical across processes, which is what the DSE caches need to
memoize prepared variants and cost estimates safely.

Digests are memoized on the module's monotonic version counter (see
:meth:`repro.core.ir.module.Module.version`): an unmutated module is
printed and hashed exactly once per process no matter how many cache
lookups, lint passes, or DSE points ask for its digest, while any
structural mutation bumps the counter and transparently invalidates
the memo. :func:`digest_stats` exposes print/hit counters so tests and
benchmarks can assert that repeated lookups do not re-print.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

from repro.core.ir.module import Module
from repro.core.ir.printer import print_module

#: Bump when the printed form or digest recipe changes incompatibly;
#: part of every persistent cache key so stale entries never match.
DIGEST_VERSION = "1"


@dataclass
class DigestStats:
    """Counters for digest memoization (process-wide).

    ``prints`` counts full IR reprints (the expensive part); ``hits``
    counts lookups served from the version-keyed memo.
    """

    hits: int = 0
    prints: int = 0

    @property
    def lookups(self) -> int:
        """Total digest requests."""
        return self.hits + self.prints


_stats = DigestStats()


def digest_stats() -> DigestStats:
    """The process-wide digest counters (mutated in place)."""
    return _stats


def reset_digest_stats() -> DigestStats:
    """Zero the counters and return the stats object."""
    _stats.hits = 0
    _stats.prints = 0
    return _stats


def _hash_text(text: str) -> str:
    payload = f"ir-digest-v{DIGEST_VERSION}\x1f{text}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def module_digest(module: Module) -> str:
    """Stable hex digest of a module's printed structure."""
    root = module.op
    version = root.version
    memo: Tuple[int, str] | None = getattr(root, "_digest_memo", None)
    if memo is not None and memo[0] == version:
        _stats.hits += 1
        return memo[1]
    _stats.prints += 1
    digest = _hash_text(print_module(module))
    root._digest_memo = (version, digest)
    return digest
