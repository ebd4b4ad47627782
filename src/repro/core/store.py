"""The one content-addressed store behind every digest-keyed cache.

:class:`ContentStore` keeps JSON payloads under *content* digests in
memory and, optionally, in a directory: one file per entry, sharded by
key prefix (``<dir>/<key[:2]>/<key>.json``) and written atomically
(temp file + rename), so processes sharing a directory never observe a
torn entry. Every file holds one envelope::

    {"version": STORE_VERSION, "key": ..., "kind": ..., "payload": ...}

``kind`` says what the payload is (``"cost"``, ``"analysis"``,
``"perf"``), so a directory can be inspected kind by kind whoever
wrote it. Reads go through the caller's decoder; an entry that is
missing, torn, of another version or layout, or that the decoder
rejects is a counted *miss*, overwritten by the next write — never an
exception. :class:`repro.core.dse.cache.CostCache` and
:class:`repro.core.analysis.cache.AnalysisCache` add key recipes and
codecs and hold no storage code of their own.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, Iterator, Optional, Tuple

#: Bump when the on-disk envelope changes incompatibly; entries of any
#: other version read as misses.
STORE_VERSION = "2"

#: What a payload decoder raises on a damaged or hostile payload.
_REJECTED = (ArithmeticError, AttributeError, LookupError, TypeError,
             ValueError)


@dataclass
class CacheStats:
    """Monotonic counters one cache keeps about itself."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    def snapshot(self) -> "CacheStats":
        """An independent copy (for delta accounting)."""
        return replace(self)

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counters accumulated after ``since`` was snapshotted."""
        return CacheStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            stores=self.stores - since.stores,
            evictions=self.evictions - since.evictions,
        )

    def add(self, delta: "CacheStats") -> None:
        """Fold another delta in: the process-pool explorer merges its
        children's prepared-cache counters this way, so published hit
        ratios account for their work as a serial run would."""
        self.hits += delta.hits
        self.misses += delta.misses
        self.stores += delta.stores
        self.evictions += delta.evictions

    @property
    def lookups(self) -> int:
        """Total gets served."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits per lookup (0.0 when never consulted)."""
        return self.hits / self.lookups if self.lookups else 0.0


class LRUCache:
    """Thread-safe bounded LRU of in-process values, keyed by content
    (a module digest plus whatever else selects the value), never by
    object identity: a recycled ``id()`` cannot resurrect an entry."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value for ``key``, refreshing its recency."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) one entry, evicting the oldest at cap."""
        with self._lock:
            if key not in self._entries:
                self.stats.stores += 1
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            return count

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def xdg_cache_dir(name: str) -> Path:
    """``$XDG_CACHE_HOME/<name>`` or ``~/.cache/<name>``."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / name


class ContentStore:
    """Two-level (memory + optional disk) store of JSON payloads.

    ``directory=None`` keeps the store purely in-memory. Thread-safe:
    the parallel explorer reads and writes it from worker threads.
    """

    def __init__(self, directory: Optional[os.PathLike] = None):
        self.directory = Path(directory) if directory else None
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._memory: Dict[str, Tuple[str, Any]] = {}
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    def read(self, key: str,
             decode: Callable[[Any], Any]) -> Optional[Any]:
        """``decode(payload)`` of the entry for ``key``, or None.

        ``decode`` runs on every read (a codec may hand out a fresh
        object each time); a payload it rejects by raising is a miss.
        """
        with self._lock:
            entry = self._memory.get(key)
        in_memory = entry is not None
        if not in_memory and self.directory is not None:
            entry = _open_envelope(self._path_for(key))
        try:
            value = None if entry is None else decode(entry[1])
        except _REJECTED:
            value = None
        with self._lock:
            if value is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            if not in_memory:
                self._memory[key] = entry
        return value

    def write(self, key: str, kind: str, payload: Any) -> None:
        """Store one payload (memory always, disk when configured)."""
        with self._lock:
            self._memory[key] = (kind, payload)
            self.stats.stores += 1
        if self.directory is None:
            return
        path = self._path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle, temp = tempfile.mkstemp(
                dir=str(path.parent), suffix=".tmp"
            )
            with os.fdopen(handle, "w") as stream:
                json.dump({"version": STORE_VERSION, "key": key,
                           "kind": kind, "payload": payload},
                          stream, sort_keys=True)
            os.replace(temp, path)
        except OSError:
            # Disk persistence is best-effort: a read-only or full
            # cache directory degrades to memory-only behavior.
            pass

    def _path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def _disk_files(self) -> Iterator[Path]:
        # globbing a directory that has since been removed yields nothing
        return self.directory.glob("*/*.json") if self.directory else iter(())

    def entry_count(self) -> int:
        """Distinct cached entries (union of memory and disk)."""
        keys = set(self._memory)
        keys.update(path.stem for path in self._disk_files())
        return len(keys)

    def disk_bytes(self) -> int:
        """Total size of the on-disk entries."""
        return sum(path.stat().st_size for path in self._disk_files())

    def breakdown(self) -> Dict[str, Dict[str, int]]:
        """``{kind: {"entries", "disk_bytes"}}`` of the on-disk entries,
        by envelope kind; a file without a readable envelope (damaged,
        or left by an older release) counts as ``"unreadable"``."""
        kinds: Dict[str, Dict[str, int]] = {}
        for path in self._disk_files():
            entry = _open_envelope(path)
            row = kinds.setdefault(entry[0] if entry else "unreadable",
                                   {"entries": 0, "disk_bytes": 0})
            row["entries"] += 1
            row["disk_bytes"] += path.stat().st_size
        return kinds

    def clear(self) -> int:
        """Drop every entry (memory and disk); returns entries removed."""
        removed = self.entry_count()
        with self._lock:
            self._memory.clear()
        for path in list(self._disk_files()):
            try:
                path.unlink()
            except OSError:
                pass
        return removed


def _open_envelope(path: Path) -> Optional[Tuple[str, Any]]:
    """``(kind, payload)`` of a well-formed current-version shard."""
    try:
        entry = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if (not isinstance(entry, dict)
            or entry.get("version") != STORE_VERSION
            or entry.get("key") != path.stem
            or not isinstance(entry.get("kind"), str)
            or "payload" not in entry):
        return None
    return entry["kind"], entry["payload"]
