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
the memo. Tests count re-prints by wrapping this module's
``print_module``.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

from repro.core.ir.module import Module
from repro.core.ir.printer import print_module

#: Bump when the printed form or digest recipe changes incompatibly;
#: part of every persistent cache key so stale entries never match.
DIGEST_VERSION = "1"


def _hash_text(text: str) -> str:
    payload = f"ir-digest-v{DIGEST_VERSION}\x1f{text}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def module_digest(module: Module) -> str:
    """Stable hex digest of a module's printed structure."""
    root = module.op
    version = root.version
    memo: Tuple[int, str] | None = getattr(root, "_digest_memo", None)
    if memo is not None and memo[0] == version:
        return memo[1]
    digest = _hash_text(print_module(module))
    root._digest_memo = (version, digest)
    return digest
