"""Content-addressed caches behind the DSE evaluation engine.

Two layers, both keyed by *content* digests
(:func:`repro.core.ir.digest.module_digest`) rather than object
identity, so a recycled ``id()`` can never alias two kernel sources:

* the prepared-module cache — a bounded in-memory
  :class:`~repro.core.store.LRUCache` of knob-transformed ("prepared")
  modules keyed ``(module_digest, pass-pipeline signature)``, so the
  knob points — of any kernel of the module — that run the same
  passes share one module; beside it, the :func:`synthesis_memo`
  pricing fills, one per prepared *content*, so the points whose
  pipelines prepare equal modules, and the points that differ only in
  clock, share one synthesis too;
* :class:`CostCache` — the ``"cost"`` kind of the two-level
  :class:`~repro.core.store.ContentStore`, memoizing ``(module_digest,
  kernel, knobs, model)`` → cost estimate, bitstream record included,
  so a second ``repro`` invocation of the same kernel prices *and
  packages* without HLS synthesis; the points of one kernel are the
  lines of one shard file.

Both are thread-safe and keep their own hit/miss statistics instead of
reporting to the ambient observation from workers: the explorer
publishes deltas from the main thread, keeping traces and metrics
deterministic regardless of ``workers``.
"""

from __future__ import annotations

import hashlib
import os
import threading
from functools import partial
from pathlib import Path
from typing import Any, Iterable, Optional, Tuple
from weakref import WeakValueDictionary

from repro.core.ir.digest import DIGEST_VERSION, module_digest
from repro.core.ir.module import Module
from repro.core.store import (
    ContentStore, LRUCache, decode, encode, xdg_cache_dir,
)
from repro.core.variants import CostEstimate

#: Part of every cost key: bump when the key recipe or the cost payload
#: changes incompatibly, and old entries can never match again.
CACHE_FORMAT_VERSION = "2"

#: Default bound of the prepared-module LRU (entries, not bytes).
DEFAULT_PREPARED_CAPACITY = 512


class CostCache(ContentStore):
    """The store's ``"cost"`` kind: one estimate per evaluation point.

    ``get`` always returns a *fresh* :class:`CostEstimate`: callers
    (the explorer's requirement check) mutate feasibility in place, and
    a shared instance would poison later lookups.
    """

    @staticmethod
    def key(module_digest: str, kernel: str, knobs: Any,
            model_fingerprint: str) -> str:
        """Stable cache key for one evaluation point: its kernel's
        shard (the points of one exploration share a file), then the
        point in it."""
        shard = "\x1f".join((
            f"dse-cost-v{CACHE_FORMAT_VERSION}",
            f"ir-v{DIGEST_VERSION}",
            module_digest,
            kernel,
            model_fingerprint,
        ))
        shard, point = (
            hashlib.sha256(part.encode("utf-8")).hexdigest()
            for part in (shard, repr(knobs)))
        return f"{shard}.{point[:16]}"

    def get(self, key: str) -> Optional[CostEstimate]:
        """The cached estimate for ``key`` (a fresh copy), or None."""
        return self.read(key, partial(decode, CostEstimate))

    def put(self, key: str, cost: CostEstimate) -> None:
        """Store one estimate."""
        self.put_many([(key, cost)])

    def put_many(self, items: Iterable[Tuple[str, CostEstimate]]) -> None:
        """Store ``(key, estimate)`` pairs in one write: a priced batch
        is one append per shard."""
        self.write([(key, "cost", encode(cost)) for key, cost in items])


# ---------------------------------------------------------------------
# Process-wide default instances (what the cost model actually uses).

_prepared = LRUCache(DEFAULT_PREPARED_CAPACITY)
_cost = CostCache()
_config_lock = threading.Lock()


class Syntheses(dict):
    """What pricing synthesized from one prepared content, by kernel
    and clock-free HLS options (a ``dict`` subclass, so the digest map
    below can hold it weakly), and the first prepared module of that
    content, which every synthesis of it starts from: one CDFG per
    content."""

    def __init__(self, prepared: Module):
        super().__init__()
        self.prepared = prepared


_syntheses: "WeakValueDictionary[str, Syntheses]" = WeakValueDictionary()
#: Bumped whenever the memos are forgotten, so a live module stops
#: reading the memo it held.
_generation = 0


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro-dse`` or ``~/.cache/repro-dse``."""
    return xdg_cache_dir("repro-dse")


def prepared_cache() -> LRUCache:
    """The process-wide prepared-module LRU."""
    return _prepared


def cost_cache() -> CostCache:
    """The process-wide cost cache."""
    return _cost


def synthesis_memo(prepared: Module) -> Syntheses:
    """The :class:`Syntheses` of ``prepared``'s content.

    Keyed by :func:`~repro.core.ir.digest.module_digest`, so the knob
    points whose different pass pipelines prepare equal modules (a tile
    that does not divide its matmul's dimensions, which lowering leaves
    untiled) share their syntheses. The map holds
    each memo weakly and the prepared modules strongly, on their root
    op by version: a memo lives while a module of its content does,
    and once the prepared LRU entries are evicted or cleared (or the
    LRU reconfigured) and nobody holds their modules, it goes with
    them; :func:`clear_caches` and :func:`configure` drop them all.
    The digest is taken on the first call for a module, which only
    pricing makes.
    """
    root = prepared.op
    held = getattr(root, "_synthesis_memo", None)
    if held is None or held[:2] != (root.version, _generation):
        digest = module_digest(prepared)
        with _config_lock:
            memo = _syntheses.get(digest)
            if memo is None:
                memo = _syntheses[digest] = Syntheses(prepared)
            held = root._synthesis_memo = (root.version, _generation, memo)
    return held[2]


def configure(
    cache_dir: Optional[os.PathLike] = None,
    prepared_capacity: Optional[int] = None,
) -> CostCache:
    """Reconfigure the process-wide caches.

    ``cache_dir=None`` keeps the cost cache memory-only (the library
    default); the CLI passes :func:`default_cache_dir` so repeated
    invocations share one persistent store. Returns the new cost cache.
    """
    global _prepared, _cost
    with _config_lock:
        _cost = CostCache(cache_dir)
        if prepared_capacity is not None:
            _prepared = LRUCache(prepared_capacity)
        _forget_syntheses()
        return _cost


def clear_caches() -> int:
    """Empty both process-wide caches and the synthesis memos; returns
    cache entries removed."""
    with _config_lock:
        _forget_syntheses()
    return prepared_cache().clear() + cost_cache().clear()


def _forget_syntheses() -> None:
    """Drop every synthesis memo, also those a live prepared module
    still holds; the caller holds ``_config_lock``."""
    global _generation
    _syntheses.clear()
    _generation += 1
