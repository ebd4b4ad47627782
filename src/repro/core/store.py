"""The one content-addressed store behind every digest-keyed cache.

:class:`ContentStore` keeps JSON payloads under *content* digests in
memory and, optionally, in a directory of *shard* files. What precedes
the first ``"."`` of a key (all of it when there is none) names its
shard, so a cache whose entries are made and wanted together — the
cost cache's points of one kernel — gives them one prefix and gets one
file, read once and appended to, where a file per entry cost a
directory and an inode each. A shard is
``<dir>/<shard[:2]>/<shard>.json``: one sealed envelope per line, a
key's last line being its entry::

    {"key":...,"kind":...,"payload":...,"version":STORE_VERSION,"crc":...}

The crc covers the key, so a payload moved under another key is a
miss, not a hit.

:meth:`ContentStore.write` takes a batch of entries and gives each
shard its lines — the lines the entries would get one by one, in their
order — in one ``os.write`` on an ``O_APPEND`` descriptor, so
processes sharing a directory never observe a torn entry and a priced
batch costs one open per shard, not one per point. ``kind`` says what
the payload is (``"cost"``, ``"analysis"``, ``"perf"``), so a
directory can be inspected kind by kind whoever wrote it. Reads go through the caller's
decoder; an entry that is missing, torn, of another version or layout,
or that the decoder rejects is a counted *miss*, overwritten by the
next write — never an exception. :class:`repro.core.dse.cache.CostCache`
and :class:`repro.core.analysis.cache.AnalysisCache` add key recipes
and hold no storage code of their own.

One line codec seals every line the store and the run journal write.
:func:`seal` gives a record as compact, key-sorted JSON
(:func:`compact_json`) with ``,"crc":"<12 hex>"`` spliced in before
its closing brace: a truncated SHA-256 of the JSON without it. The
splice is :func:`seal_body`, which a writer that formats a record's
JSON itself (the run journal's event lines) calls too.
:func:`unseal` checks the crc over the line's own bytes — the line
with its crc member cut out, last as :func:`seal` writes it or first
as in older, key-sorted journal snapshots — and only then parses.
:func:`sealed_lines` reads a file of such lines. Each layer keeps its
own policy above it: the store its version, shard and torn-append
rules, the journal its torn tail, sequence and format-version checks.

One codec turns every record the store (and the run journal's
snapshots) hold into JSON and back. :func:`encode` gives a record's
fields as a dict, by a field-name plan worked out once per class:
nested records become dicts, lists, tuples and dicts are rebuilt with
their items encoded, and every other value is handed through as it is
(a record holds JSON atoms, so nothing is copied). :func:`decode`
rebuilds a dataclass from its fields' annotations, checking every
value on the way:

* the payload is a JSON object; keys that name no field are ignored,
  a missing field takes its default, and a missing field without one
  is rejected (so an older payload still reads while it has what the
  record needs);
* a nested dataclass is decoded by the same rules;
* ``List`` and ``Tuple`` need an array (a ``Tuple`` of its length),
  ``Dict`` an object, and ``Optional`` also takes ``null``;
* ``int`` needs an integer that is not a bool, ``float`` an integer or
  a float, ``str`` and ``bool`` exactly that type.

A violation raises :class:`TypeError` (a constructor's own check may
raise :class:`ValueError`), which a read counts as a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import (
    Any, Callable, Dict, Hashable, Iterable, Iterator, List, Optional,
    Tuple, Union, get_args, get_origin, get_type_hints,
)

#: Bump when the on-disk envelope changes incompatibly; entries of any
#: other version read as misses.
STORE_VERSION = "4"

#: The compact, key-sorted JSON of a value: one serializer for every
#: sealed line (``json.dumps`` would build a new encoder per call).
#: Every sealed record is built by its writer, so none holds a cycle.
compact_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                check_circular=False).encode

#: How a shard file is opened for a write: created when missing, every
#: write landing at its end.
_APPEND = os.O_WRONLY | os.O_CREAT | os.O_APPEND

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
        ratios account for their work."""
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
        #: Shards read from disk (or found missing) so far -> whether
        #: one held a line no reader accepts (the next write to it then
        #: leaves it out).
        self._shards: Dict[str, bool] = {}
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    def read(self, key: str,
             decode: Callable[[Any], Any]) -> Optional[Any]:
        """``decode(payload)`` of the entry for ``key``, or None.

        ``decode`` runs on every read (a codec may hand out a fresh
        object each time); a payload it rejects by raising is a miss.
        """
        with self._lock:
            self._load(key)
            entry = self._memory.get(key)
        try:
            value = None if entry is None else decode(entry[1])
        except _REJECTED:
            value = None
        with self._lock:
            if value is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
        return value

    def write(self, entries: Iterable[Tuple[str, str, Any]]) -> None:
        """Store ``(key, kind, payload)`` entries in order: in memory
        always, and on disk (when configured) with one append per shard
        of the lines the entries would get written one by one."""
        with self._lock:
            texts: Dict[str, List[str]] = {}
            for key, kind, payload in entries:
                self._load(key)
                self._memory[key] = (kind, payload)
                self.stats.stores += 1
                if self.directory is None:
                    continue
                # a sound shard (or one not there yet) gets one more
                # line; a damaged one starts over with what memory
                # holds of it
                shard = _shard_of(key)
                rewrite = shard not in texts and self._shards.get(shard)
                texts.setdefault(shard, []).extend(
                    self._line(held) for held in (
                        self._memory if rewrite else [key])
                    if _shard_of(held) == shard)
            for shard, lines in texts.items():
                self._append(shard, "".join(lines).encode())

    def _line(self, key: str) -> str:
        kind, payload = self._memory[key]
        return seal({"version": STORE_VERSION, "key": key, "kind": kind,
                     "payload": payload}) + "\n"

    def _append(self, shard: str, data: bytes) -> None:
        """``data`` added to a shard file by one ``os.write`` on an
        ``O_APPEND`` descriptor; a damaged shard file is replaced."""
        path = self._path_for(shard)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            if self._shards.get(shard):
                path.unlink(missing_ok=True)
            descriptor = os.open(path, _APPEND, 0o666)
            try:
                written = os.write(descriptor, data)
            finally:
                os.close(descriptor)
            # a short write (a full disk) left a torn line: the next
            # write starts the shard over
            self._shards[shard] = written < len(data)
        except OSError:
            # Disk persistence is best-effort: a read-only or full
            # cache directory degrades to memory-only behavior.
            pass

    def _load(self, key: str) -> None:
        """Bring the shard of ``key`` into memory the first time one of
        its keys is touched; a shard file that is not there then is
        never probed again, as a loaded one is never read again."""
        shard = _shard_of(key)
        if self.directory is None or shard in self._shards:
            return
        entries = [entry for _size, entry
                   in _shard_entries(self._path_for(shard))]
        self._shards[shard] = None in entries
        self._memory.update(
            (entry[0], entry[1:]) for entry in entries if entry)

    def _path_for(self, shard: str) -> Path:
        return self.directory / shard[:2] / f"{shard}.json"

    def _disk_files(self) -> Iterator[Path]:
        # globbing a directory that has since been removed yields nothing
        return self.directory.glob("*/*.json") if self.directory else iter(())

    def _disk_index(self) -> Dict[Any, list]:
        """``{key: [kind, bytes]}`` of the on-disk entries: a key's
        last line says its kind and all its lines count to its bytes;
        a line no reader accepts is an entry of its own."""
        index: Dict[Any, list] = {}
        for path in self._disk_files():
            for size, entry in _shard_entries(path):
                key, kind = entry[:2] if entry else (len(index), "unreadable")
                held = index.setdefault(key, [kind, 0])
                held[0] = kind
                held[1] += size
        return index

    def entry_count(self) -> int:
        """Distinct cached entries (union of memory and disk)."""
        return len(set(self._memory).union(self._disk_index()))

    def disk_bytes(self) -> int:
        """Total size of the on-disk entries."""
        return sum(path.stat().st_size for path in self._disk_files())

    def breakdown(self) -> Dict[str, Dict[str, int]]:
        """``{kind: {"entries", "disk_bytes"}}`` of the on-disk entries,
        by envelope kind; a line without a readable envelope (damaged,
        or left by an older release) counts as ``"unreadable"``."""
        kinds: Dict[str, Dict[str, int]] = {}
        for kind, size in self._disk_index().values():
            row = kinds.setdefault(kind, {"entries": 0, "disk_bytes": 0})
            row["entries"] += 1
            row["disk_bytes"] += size
        return kinds

    def clear(self) -> int:
        """Drop every entry (memory and disk); returns entries removed."""
        removed = self.entry_count()
        with self._lock:
            self._memory.clear()
            self._shards.clear()
        for path in list(self._disk_files()):
            try:
                path.unlink()
            except OSError:
                pass
        return removed


def _shard_of(key: str) -> str:
    return key.partition(".")[0]


def _shard_entries(path: Path
                   ) -> Iterator[Tuple[int, Optional[Tuple[str, str, Any]]]]:
    """``(bytes, (key, kind, payload))`` per line of a shard file, the
    entry None where the line is no sealed current-version envelope of
    a key of this shard, or lacks its newline (a torn append); nothing
    for a file that cannot be read."""
    try:
        for _offset, line, entry in sealed_lines(path):
            sound = (entry is not None
                     and line.endswith(b"\n")
                     and entry.get("version") == STORE_VERSION
                     and isinstance(entry.get("key"), str)
                     and _shard_of(entry["key"]) == path.stem
                     and isinstance(entry.get("kind"), str)
                     and "payload" in entry)
            yield len(line), (
                (entry["key"], entry["kind"], entry["payload"])
                if sound else None)
    except OSError:
        return


# ---------------------------------------------------------------------
# The line codec.

#: Bytes a crc member takes at either end of a line: ``,"crc":"<12
#: hex>"}`` last, as :func:`seal` splices it, or ``{"crc":"<12 hex>",``
#: first, as older key-sorted journal snapshots hold it.
_MEMBER = 22


def _crc(body: bytes) -> bytes:
    return hashlib.sha256(body).hexdigest()[:12].encode()


def seal(record: Dict[str, Any]) -> str:
    """One line (no newline) for a non-empty record: its compact,
    key-sorted JSON with its crc spliced in as the last member."""
    return seal_body(compact_json(record))


def seal_body(body: str) -> str:
    """The sealed line of a non-empty record whose compact, key-sorted
    JSON is ``body``: the crc spliced in as its last member."""
    return f'{body[:-1]},"crc":"{_crc(body.encode()).decode()}"}}'


def unseal(line: Union[bytes, str]) -> Dict[str, Any]:
    """The record a sealed line holds, crc removed; raises
    :class:`ValueError` unless its crc matches its own bytes."""
    if isinstance(line, str):
        line = line.encode()
    line = line.strip()
    if line[-_MEMBER:-14] == b',"crc":"' and line.endswith(b'"}'):
        crc, body = line[-14:-2], line[:-_MEMBER] + b"}"
    elif line.startswith(b'{"crc":"') and line[20:_MEMBER] == b'",':
        crc, body = line[8:20], b"{" + line[_MEMBER:]
    else:
        raise ValueError("no crc member")
    if _crc(body) != crc:
        raise ValueError("checksum mismatch")
    # a body opened by ``{`` or closed by ``}`` parses to an object or
    # not at all
    return json.loads(body)


def sealed_lines(path: os.PathLike
                 ) -> Iterator[Tuple[int, bytes, Optional[Dict[str, Any]]]]:
    """``(byte offset, line, record)`` per ``\\n``-ended line of a file
    (the last may lack it), the record None where the line does not
    unseal. A file that cannot be read raises :class:`OSError`."""
    with open(path, "rb") as handle:
        lines = handle.readlines()
    offset = 0
    for line in lines:
        try:
            record = unseal(line)
        except ValueError:
            record = None
        yield offset, line, record
        offset += len(line)


# ---------------------------------------------------------------------
# The record codec.


def encode(record: Any) -> Any:
    """The JSON-able payload of a dataclass record: its fields, by the
    module's rules (a value of no record class is its own payload)."""
    kind = type(record)
    if kind in _ATOMS:  # most values a record holds: no lookups
        return record
    if kind is list or kind is tuple:
        return kind([encode(item) for item in record])
    if kind is dict:
        return {encode(key): encode(item) for key, item in record.items()}
    names = _field_names(kind)
    return record if names is None else {
        name: encode(getattr(record, name)) for name in names}


#: The JSON atoms, which :func:`encode` hands through first.
_ATOMS = frozenset({str, int, float, bool, type(None)})


@lru_cache(maxsize=None)
def _field_names(kind: type) -> Optional[Tuple[str, ...]]:
    """The field-name plan of a record class; None for any other."""
    return (tuple(item.name for item in fields(kind))
            if is_dataclass(kind) else None)


def decode(cls: type, payload: Any) -> Any:
    """The ``cls`` record ``payload`` holds, checked by the module's
    rules; raises :class:`TypeError` on the first violation."""
    return _reader(cls)(payload)


#: JSON types each scalar annotation accepts (``type(value)`` exactly:
#: a bool is no int).
_SCALARS = {int: (int,), float: (int, float), str: (str,), bool: (bool,)}


def _check(value: Any, kinds: Tuple[type, ...]) -> None:
    if not isinstance(value, kinds):
        raise TypeError(f"expected {kinds[0].__name__}, "
                        f"got {type(value).__name__}")


@lru_cache(maxsize=None)
def _reader(hint: Any) -> Callable[[Any], Any]:
    """The converter for one annotation, worked out once per hint."""
    if is_dataclass(hint):
        hints = get_type_hints(hint)
        plan = [(item.name, _reader(hints[item.name]))
                for item in fields(hint) if item.init]

        def record(value):
            _check(value, (dict,))
            return hint(**{name: read(value[name])
                           for name, read in plan if name in value})
        return record
    if hint in _SCALARS:
        kinds = _SCALARS[hint]

        def scalar(value):
            if type(value) not in kinds:
                raise TypeError(f"expected {hint.__name__}, "
                                f"got {type(value).__name__}")
            return value
        return scalar
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union and len(args) == 2 and type(None) in args:
        inner = _reader(next(arg for arg in args if arg is not type(None)))
        return lambda value: None if value is None else inner(value)
    if origin is list:
        item = _reader(args[0])

        def array(value):
            _check(value, (list, tuple))
            return [item(element) for element in value]
        return array
    if origin is tuple:
        items = [_reader(arg) for arg in args]

        def row(value):
            _check(value, (list, tuple))
            if len(value) != len(items):
                raise TypeError(f"expected {len(items)} items, "
                                f"got {len(value)}")
            return tuple(read(element)
                         for read, element in zip(items, value))
        return row
    if origin is dict:
        if not args:
            return lambda value: _check(value, (dict,)) or value
        key, entry = _reader(args[0]), _reader(args[1])

        def mapping(value):
            _check(value, (dict,))
            return {key(name): entry(element)
                    for name, element in value.items()}
        return mapping
    raise TypeError(f"no codec for {hint!r}")
