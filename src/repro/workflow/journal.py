"""Durable write-ahead event journal for workflow runs.

Every transition of a workflow run that a resume has to know about —
a task's payload about to be invoked, a task completing, a fault
injected, a recovery action taken — is appended to the run's journal
as one JSONL record before the run moves on, so a process crash at
*any* point leaves a prefix of the truth on disk. A crashed run is
resumed by replaying the journal into a
:class:`~repro.workflow.replay.ReplayState` and re-executing the whole
(deterministic) run with that state: payloads that already ran are
skipped, and the resumed trace digest is byte-identical to an unbroken
run's.

An ``exec`` record exists only for a task with a payload: it is what a
resume must not run again, and the only thing a resume skips. A task
without a payload is journaled by its completion alone — its
re-execution is simulated time, not work. A journal from a build that
wrote an ``exec`` record for every task attempt still replays and
resumes; its credits for tasks without a payload are never spent.

Those four kinds are the table ``JOURNALED_CATEGORIES`` stated beside
the fold in :mod:`repro.workflow.replay`, the journal's only reader.
Everything else the servers trace — dispatch decisions, queue-depth
counters, resource requests and releases, transfer spans — is a pure
function of (recipe, fault schedule): the re-execution regenerates it,
the fold would read nothing of it but a count and a time, so it stays
in the tracer (and the exported Chrome trace) and out of the journal.
By the same rule an ``event`` record keeps only the fields the fold
reads: ``phase``, ``name``, ``category``, ``ts``, ``dur`` and, of the
tracer's args, ``task`` alone — a journal that kept every arg still
folds to the same state.

Format — one record per line::

    {"seq": N, "type": T, "data": {...}, "crc": "<12 hex>"}

Each line is sealed by :func:`repro.core.store.seal`, the line codec
the caches use too: ``crc`` is a truncated SHA-256 over the compact,
key-sorted JSON of the record *without* the crc field, and
:func:`repro.core.store.unseal` checks it over the line's own bytes.
An ``event`` record, the one a run writes per journaled transition,
always has one shape::

    {"data":{"args":{...},"category":C,"dur":D,"name":N,"phase":P,"ts":T},
     "seq":N,"type":"event"}

so :func:`event_line` formats it without building the record: the
members in that (sorted) order, each value as the store's encoder
writes it — a ``str`` through ``encode_basestring_ascii``, a finite
``float`` or an ``int`` as its ``repr``, anything else through
:func:`repro.core.store.compact_json` itself — and
:func:`repro.core.store.seal_body` splices the crc in. Those are the
encoder's own rules for those types, so the line is
``encode_record(seq, "event", data)`` byte for byte (a property the
journal-line fuzz test checks over hostile names and numbers), and
the writer folds the event from the same fields
(:func:`repro.workflow.replay.fold_event`). Header, snapshot and
finish records go through ``seal``.

Records are appended with a single ``write`` + ``flush`` each (so a
torn write can only be the final line) and fsync'd per the journal's
``fsync`` policy. The reader, :func:`read_records` over
:func:`repro.core.store.sealed_lines`, tolerates a torn *final*
record — the tail of an append cut short by a crash — but a corrupt
or out-of-sequence record anywhere else raises a ``WF007`` diagnostic
naming the byte offset, and a journal or snapshot written by a
different format version is rejected with ``WF008``.

Periodic snapshots (``snapshot-<seq>.json`` beside the journal)
capture the folded :class:`ReplayState` so resume cost is O(tail),
not O(history). They are the only recovery point a run directory
holds: recovery is re-execution from the newest one, never a rewind.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.store import (
    compact_json, decode, encode, seal, seal_body, sealed_lines, unseal,
)
from repro.diagnostics import diagnosed_error
from repro.errors import JournalError
from repro.workflow.replay import (
    JOURNAL_CATEGORY,
    JOURNALED_CATEGORIES,
    ReplayState,
    apply_record,
    fold_event,
    replay_records,
)

#: Format version stamped into every journal header record.
JOURNAL_VERSION = 1
#: Format version stamped into every snapshot file.
SNAPSHOT_VERSION = 1

#: Journal file name inside a run directory.
JOURNAL_FILE = "journal.jsonl"

#: Accepted ``fsync`` policies for :class:`RunJournal`.
FSYNC_MODES = ("always", "snapshot", "never")


def journal_error(code: str, message: str, anchor: str) -> JournalError:
    """A :class:`JournalError` carrying a WF00x diagnostic.

    :func:`~repro.diagnostics.diagnosed_error` whose message leads
    with the stable code, also kept in ``code``.
    """
    exc = diagnosed_error(JournalError, code, message, anchor, "journal")
    exc.args = (f"{code}: {message}",)
    exc.code = code
    return exc


# ---------------------------------------------------------------------------
# records


def encode_record(seq: int, kind: str, data: Dict) -> str:
    """One journal line (no trailing newline) for a record."""
    return seal({"seq": seq, "type": kind, "data": data})


def _json(value: Any) -> str:
    """``compact_json(value)``, by the encoder's own rule where the
    value is a ``str``, an ``int`` or a finite ``float``."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int or kind is float and isfinite(value):
        return repr(value)
    return compact_json(value)


def event_line(seq: int, phase: str, name: str, category: str, ts: float,
               dur: float, task: Any) -> str:
    """``encode_record(seq, "event", data)`` of the ``data``
    :meth:`RunJournal.on_event` journals (``args`` empty when ``task``
    is None), formatted in the record's one shape without building
    it: the members in sorted order, each value by :func:`_json`."""
    args = "{}" if task is None else f'{{"task":{_json(task)}}}'
    return seal_body(
        f'{{"data":{{"args":{args},"category":{_json(category)},'
        f'"dur":{_json(dur)},"name":{_json(name)},"phase":{_json(phase)},'
        f'"ts":{_json(ts)}}},"seq":{seq},"type":"event"}}')


def read_records(path) -> Tuple[List[Dict], bool]:
    """All valid records of a journal file, in order.

    Returns ``(records, torn_tail)``. A final record that fails to
    unseal is a torn write — the crash interrupted the last append —
    and is dropped with ``torn_tail=True``. Any earlier bad record, or
    a sequence-number gap, is corruption: ``WF007`` names the byte
    offset. A header from another format version raises ``WF008``.
    """
    if not os.path.exists(path):
        return [], False
    records: List[Dict] = []
    damage = None  # the WF007 of a bad record, unless it is the last
    for start, line, record in sealed_lines(path):
        if line == b"\n":
            continue
        if damage is not None:
            raise damage
        shaped = (record is not None and "type" in record
                  and isinstance(record.get("data"), dict))
        if not shaped or record.get("seq") != len(records):
            damage = journal_error(
                "WF007",
                f"corrupt journal record at byte offset {start} "
                f"(record {len(records)}): " + (
                    f"sequence gap: expected {len(records)}, "
                    f"found {record.get('seq')}" if shaped else
                    "it does not unseal to a {seq, type, data} record"),
                anchor=str(path),
            )
            continue
        if record["type"] == "header":
            version = record["data"].get("journal_version")
            if version != JOURNAL_VERSION:
                raise journal_error(
                    "WF008",
                    f"journal version skew: file is v{version}, "
                    f"this build reads v{JOURNAL_VERSION}",
                    anchor=str(path),
                )
        records.append(record)
    return records, damage is not None


# ---------------------------------------------------------------------------
# snapshots


def snapshot_path(directory, seq: int) -> Path:
    """Snapshot file covering journal records ``0..seq``."""
    return Path(directory) / f"snapshot-{seq:08d}.json"


def list_snapshots(directory) -> List[Tuple[int, Path]]:
    """(covered seq, path) of every snapshot file, newest first."""
    directory = Path(directory)
    found = []
    if not directory.is_dir():
        return found
    for path in directory.glob("snapshot-*.json"):
        stem = path.stem.split("-", 1)[-1]
        try:
            found.append((int(stem), path))
        except ValueError:
            continue
    return sorted(found, reverse=True)


def write_snapshot(directory, seq: int, state: ReplayState) -> Path:
    """Atomically persist the state folded through record ``seq``."""
    path = snapshot_path(directory, seq)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(seal({
        "snapshot_version": SNAPSHOT_VERSION,
        "journal_version": JOURNAL_VERSION,
        "seq": seq,
        "state": encode(state),
    }), encoding="utf-8")
    os.replace(tmp, path)
    return path


def read_snapshot(path) -> Optional[Tuple[int, ReplayState]]:
    """Load one snapshot file; None when torn/corrupt (fall back to
    an older snapshot or a full replay), ``WF008`` on version skew —
    read from the file's JSON even when its crc does not verify."""
    try:
        raw = Path(path).read_bytes()
        try:
            payload, intact = unseal(raw), True
        except ValueError:
            payload, intact = json.loads(raw), False
        versions = (payload.get("snapshot_version"),
                    payload.get("journal_version"))
    except (OSError, ValueError, AttributeError):
        return None
    if versions != (SNAPSHOT_VERSION, JOURNAL_VERSION):
        raise journal_error(
            "WF008",
            f"snapshot version skew: file is snapshot v{versions[0]} / "
            f"journal v{versions[1]}, this build reads "
            f"v{SNAPSHOT_VERSION}/v{JOURNAL_VERSION}",
            anchor=str(path),
        )
    if not intact:
        return None
    try:
        return payload["seq"], decode(ReplayState, payload["state"])
    except (KeyError, TypeError, ValueError, AttributeError):
        return None  # e.g. a ``state`` that is not an object


# ---------------------------------------------------------------------------
# replay


class ReplayInfo:
    """How a replay reconstructed its state (for `runs show`/benchmarks)."""

    def __init__(self, records_total: int, records_replayed: int,
                 snapshot_seq: int, torn_tail: bool):
        """Counts of journal records seen vs actually folded."""
        self.records_total = records_total
        self.records_replayed = records_replayed
        self.snapshot_seq = snapshot_seq
        self.torn_tail = torn_tail


def replay_journal(directory, use_snapshots: bool = True
                   ) -> Tuple[ReplayState, ReplayInfo]:
    """Reconstruct a run directory's state: snapshot + journal tail.

    Seeds from the newest intact snapshot whose covered seq is within
    the journal (snapshots "from the future" — the journal was
    truncated behind them — are ignored), then folds only the records
    after it. ``use_snapshots=False`` forces a full fold; both paths
    produce equal states (the property the durability suite pins).
    """
    directory = Path(directory)
    records, torn = read_records(directory / JOURNAL_FILE)
    last_seq = records[-1]["seq"] if records else -1
    state: Optional[ReplayState] = None
    after = -1
    if use_snapshots:
        for seq, path in list_snapshots(directory):
            if seq > last_seq:
                continue  # journal truncated behind this snapshot
            loaded = read_snapshot(path)
            if loaded is not None:
                after, state = loaded
                break
    state = replay_records(records, state=state, after_seq=after)
    info = ReplayInfo(
        records_total=len(records),
        records_replayed=len([r for r in records if r["seq"] > after]),
        snapshot_seq=after,
        torn_tail=torn,
    )
    return state, info


# ---------------------------------------------------------------------------
# the writer facade the servers drive


class RunJournal:
    """Write-ahead journal for one workflow run.

    The servers attach it to their simulated-time tracer
    (:meth:`attach`); every tracer event of a journaled category
    (completions, payload invocations, faults, recoveries — see
    ``replay.JOURNALED_CATEGORIES``) is then journaled *before*
    execution proceeds, events of any other category pass by, and the
    journal maintains the folded :class:`ReplayState` incrementally so
    snapshots are O(state), not O(history). ``snapshot_every`` counts
    journaled events (0: no periodic snapshot; negative is an error).

    ``fsync`` policies: ``"always"`` fsyncs every append (survives OS
    crashes), ``"snapshot"`` (default) flushes every append — a torn
    tail is the worst a *process* crash can do — and fsyncs at the
    header, at snapshots and at finish, so an *OS* crash loses at most
    ``snapshot_every`` events; ``"never"`` fsyncs only on close. Close
    fsyncs only what was appended since the last fsync: nothing after
    a finish, the tail of a run stopped mid-way.
    """

    def __init__(self, directory, snapshot_every: int = 100,
                 fsync: str = "snapshot"):
        """Create/open the journal under run directory ``directory``."""
        if fsync not in FSYNC_MODES:
            raise JournalError(
                f"unknown fsync mode {fsync!r}; use one of "
                f"{FSYNC_MODES}"
            )
        if snapshot_every < 0:
            raise JournalError(f"snapshot_every must be >= 0, got {snapshot_every}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / JOURNAL_FILE
        self.snapshot_every = snapshot_every
        self.fsync = fsync
        self.state = ReplayState()
        self._seq = 0
        self._handle = None
        self._tracer = None
        self._since_snapshot = 0
        self._started = False
        self._unsynced = False  # appended since the last fsync

    # -- lifecycle -----------------------------------------------------

    def _ensure_open(self) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")

    def start(self, header: Dict) -> None:
        """Write the header record (once) and begin accepting events."""
        if self._started:
            return
        self._started = True
        self.append("header", {**header, "journal_version": JOURNAL_VERSION},
                    sync=self.fsync != "never")

    def attach(self, tracer) -> None:
        """Journal the tracer's journaled-category events from now on."""
        self._tracer = tracer
        tracer.sink = self.on_event

    def detach(self) -> None:
        """Stop journaling tracer events."""
        if self._tracer is not None:
            self._tracer.sink = None
            self._tracer = None

    def close(self) -> None:
        """Flush, fsync what is not yet synced and release the file."""
        self.detach()
        if self._handle is not None:
            self._handle.flush()
            if self._unsynced:
                os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        """Context-manager support: close on exit."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the journal when the block exits."""
        self.close()

    # -- appends -------------------------------------------------------

    def append(self, kind: str, data: Dict, sync: bool = False) -> int:
        """Durably append one record; returns its sequence number.

        The line is written in a single ``write`` and flushed to the
        OS before the caller proceeds, so the only record a crash can
        damage is the final one — which replay tolerates.
        """
        seq = self._write(encode_record(self._seq, kind, data), sync)
        apply_record(self.state, {"seq": seq, "type": kind, "data": data})
        return seq

    def _write(self, line: str, sync: bool = False) -> int:
        """One record's line written, flushed and fsync'd per the
        policy (``sync`` forces it); returns the record's seq."""
        self._ensure_open()
        self._handle.write(line + "\n")
        self._handle.flush()
        self._unsynced = not (sync or self.fsync == "always")
        if not self._unsynced:
            os.fsync(self._handle.fileno())
        seq = self._seq
        self._seq += 1
        return seq

    def on_event(self, event) -> None:
        """Tracer sink: journal one emitted trace event, if its
        category is one the fold reads (``JOURNALED_CATEGORIES``), with
        the fields the fold reads: of its args only ``task``."""
        category = event.category
        if category not in JOURNALED_CATEGORIES or not self._started:
            return
        phase, name, ts, dur = event.phase, event.name, event.ts, event.dur
        task = event.args.get("task")
        seq = self._write(
            event_line(self._seq, phase, name, category, ts, dur, task))
        fold_event(self.state, seq, phase, category, ts, dur,
                   name if task is None else task)
        self._since_snapshot += 1
        if (self.snapshot_every
                and self._since_snapshot >= self.snapshot_every):
            self.snapshot()

    # -- snapshots -----------------------------------------------------

    def _journal_instant(self, name: str, **args) -> None:
        """Surface journal bookkeeping in the run's trace
        (``JOURNAL_CATEGORY`` is not a journaled category: the record
        stream does not feed back into itself)."""
        if self._tracer is not None:
            self._tracer.instant(
                name, category=JOURNAL_CATEGORY, track="journal", **args
            )

    def snapshot(self) -> int:
        """Persist the current state; returns the covered seq.

        One fsync, after the ``snapshot`` record, makes everything
        before it durable too. A snapshot file that outlives a lost
        journal tail is harmless: replay ignores a snapshot covering
        a seq beyond the journal's last record.
        """
        covered = self._seq - 1
        write_snapshot(self.directory, covered, self.state)
        self._since_snapshot = 0
        self.append("snapshot", {
            "seq": covered,
            "file": snapshot_path(self.directory, covered).name,
        }, sync=self.fsync != "never")
        self._journal_instant("snapshot", seq=covered,
                              events=self.state.events)
        return covered

    def finish(self, digest: str, makespan: float = 0.0) -> None:
        """Mark the run complete with its final trace digest."""
        self.append(
            "finish", {"digest": digest, "makespan": makespan},
            sync=self.fsync != "never",
        )
        self._journal_instant("finish", digest=digest)
