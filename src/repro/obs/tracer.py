"""Structured span/event tracing with Chrome ``trace_event`` export.

The tracer records three event shapes, all timestamped by a single
:class:`~repro.obs.clock.Clock`:

* **spans** — nested intervals (``with tracer.span("explore")``), each
  with a deterministic sequential id and a parent id taken from the
  enclosing span on the same track;
* **instants** — point events (a fault fired, the autotuner switched);
* **counters** — sampled numeric series (queue depth, front size).

Events live on *tracks* (exported as Chrome thread lanes) inside
*processes* (Chrome pids); :meth:`Tracer.absorb` merges another
tracer's events in as a new process, which is how a simulated-time
workflow trace joins a compile-time trace in one file.

Export with :meth:`Tracer.to_chrome` / :meth:`Tracer.to_json` /
:meth:`Tracer.write`; the JSON is deterministic (sorted keys, no
whitespace) so traces of seeded runs are byte-identical. Open the file
in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

A disabled tracer (``Tracer(enabled=False)``) turns every call into a
cheap no-op, so instrumented code never needs an ``if``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.clock import Clock, WallClock

#: Default track (Chrome thread) for events that name none.
MAIN_TRACK = "main"


@dataclass
class TraceEvent:
    """One recorded event in raw clock units.

    ``phase`` follows the Chrome ``trace_event`` phase letters: ``X``
    (complete span), ``i`` (instant), ``C`` (counter). ``ts`` and
    ``dur`` are raw clock readings; ``scale`` converts them to
    microseconds at export time.
    """

    phase: str
    name: str
    category: str
    ts: float
    pid: int
    tid: int
    scale: float
    dur: float = 0.0
    span_id: int = 0
    parent_id: int = 0
    args: Dict[str, Any] = field(default_factory=dict)


class Span:
    """Handle yielded by :meth:`Tracer.span`; collects extra args."""

    __slots__ = ("_tracer", "name", "category", "_start",
                 "span_id", "parent_id", "args")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 start: float, span_id: int,
                 parent_id: int, args: Dict[str, Any]):
        """Record the open interval; closed by the context manager."""
        self._tracer = tracer
        self.name = name
        self.category = category
        self._start = start
        self.span_id = span_id
        self.parent_id = parent_id
        self.args = args

    def note(self, **args: Any) -> "Span":
        """Attach extra args to the span before it closes."""
        self.args.update(args)
        return self

    def __enter__(self) -> "Span":
        """Return the handle (the interval opened at creation)."""
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Close the span and emit its complete event."""
        self._tracer._close_span(self)
        return False


class _NullSpan:
    """No-op stand-in returned by a disabled tracer."""

    __slots__ = ()

    def note(self, **args: Any) -> "_NullSpan":
        """Ignore the args."""
        return self

    def __enter__(self) -> "_NullSpan":
        """Return self."""
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Do nothing."""
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans, instants and counters from one clock domain."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        enabled: bool = True,
        process: str = "repro",
    ):
        """Create a tracer reading ``clock`` (default: wall time)."""
        self.enabled = enabled
        self.clock = clock or WallClock()
        self.events: List[TraceEvent] = []
        #: Optional callback invoked synchronously with every event
        #: this tracer records itself (not absorbed ones) — the hook a
        #: write-ahead journal uses to persist transitions before
        #: execution proceeds.
        self.sink: Optional[Any] = None
        self._next_span_id = 1
        self._next_pid = 2
        self._pid = 1
        self._process_names: Dict[int, str] = {1: process}
        # (pid, track name) -> tid, assigned in first-use order
        self._tids: Dict[Tuple[int, str], int] = {}
        # open-span stack per (pid, tid)
        self._stacks: Dict[Tuple[int, int], List[int]] = {}

    # -- recording -----------------------------------------------------

    def _tid(self, track: str) -> int:
        key = (self._pid, track)
        tid = self._tids.get(key)
        if tid is None:
            tid = len([k for k in self._tids if k[0] == self._pid])
            self._tids[key] = tid
        return tid

    def _emit(self, event: TraceEvent) -> None:
        """Record an event and feed the sink, if one is attached."""
        self.events.append(event)
        if self.sink is not None:
            self.sink(event)

    def span(self, name: str, category: str = "", **args: Any):
        """Open a nested span on the main track; use as a context manager.

        Returns a :class:`Span` whose :meth:`Span.note` adds args
        before the span closes. On a disabled tracer this is a shared
        no-op object.
        """
        if not self.enabled:
            return _NULL_SPAN
        tid = self._tid(MAIN_TRACK)
        stack = self._stacks.setdefault((self._pid, tid), [])
        span_id = self._next_span_id
        self._next_span_id += 1
        parent_id = stack[-1] if stack else 0
        stack.append(span_id)
        return Span(self, name, category, self.clock.now(),
                    span_id, parent_id, args)

    def _close_span(self, span: Span) -> None:
        end = self.clock.now()
        tid = self._tid(MAIN_TRACK)
        stack = self._stacks.get((self._pid, tid), [])
        if stack and stack[-1] == span.span_id:
            stack.pop()
        self._emit(TraceEvent(
            phase="X", name=span.name, category=span.category,
            ts=span._start, dur=end - span._start, pid=self._pid,
            tid=tid, scale=self.clock.scale, span_id=span.span_id,
            parent_id=span.parent_id, args=span.args,
        ))

    def complete(self, name: str, start_ts: float, end_ts: float,
                 category: str = "", track: str = MAIN_TRACK,
                 **args: Any) -> None:
        """Record a span with explicit raw start/end timestamps.

        Used when the interval is known only at completion (a workflow
        task that started staging at ``start_ts`` and finished now).
        The parameter names leave ``start``/``end`` free for callers to
        pass as extra ``args``.
        """
        if not self.enabled:
            return
        span_id = self._next_span_id
        self._next_span_id += 1
        self._emit(TraceEvent(
            phase="X", name=name, category=category, ts=start_ts,
            dur=end_ts - start_ts, pid=self._pid, tid=self._tid(track),
            scale=self.clock.scale, span_id=span_id, args=args,
        ))

    def instant(self, name: str, category: str = "",
                track: str = MAIN_TRACK, ts: Optional[float] = None,
                **args: Any) -> None:
        """Record a point event (at ``ts``, or the clock's now)."""
        if not self.enabled:
            return
        self._emit(TraceEvent(
            phase="i", name=name, category=category,
            ts=self.clock.now() if ts is None else ts,
            pid=self._pid, tid=self._tid(track),
            scale=self.clock.scale, args=args,
        ))

    def counter(self, name: str, value: float, category: str = "",
                track: str = MAIN_TRACK) -> None:
        """Sample a numeric series (rendered as a counter lane)."""
        if not self.enabled:
            return
        self._emit(TraceEvent(
            phase="C", name=name, category=category,
            ts=self.clock.now(), pid=self._pid,
            tid=self._tid(track), scale=self.clock.scale,
            args={name: value},
        ))

    def absorb(self, other: "Tracer", process: str) -> None:
        """Merge another tracer's events in as a new process.

        The events keep their own clock units (and ``scale``), so a
        simulated-time trace nests untouched inside a wall-clock
        session. Track names and numbering carry over. Only the other
        tracer's own events are merged (not processes it absorbed
        itself).
        """
        if not self.enabled or not other.events:
            return
        pid = self._next_pid
        self._next_pid += 1
        self._process_names[pid] = process
        for (other_pid, track), tid in sorted(
            other._tids.items(), key=lambda item: item[1]
        ):
            if other_pid == other._pid:
                self._tids[(pid, track)] = tid
        for event in other.events:
            if event.pid != other._pid:
                continue
            absorbed = TraceEvent(
                phase=event.phase, name=event.name,
                category=event.category, ts=event.ts, pid=pid,
                tid=event.tid, scale=event.scale, dur=event.dur,
                span_id=event.span_id, parent_id=event.parent_id,
                args=dict(event.args),
            )
            self.events.append(absorbed)

    # -- queries -------------------------------------------------------

    def spans(self, category: Optional[str] = None
              ) -> Iterator[TraceEvent]:
        """Iterate complete spans, optionally of one category."""
        for event in self.events:
            if event.phase != "X":
                continue
            if category is None or event.category == category:
                yield event

    def total_durations(self, category: str) -> Dict[str, float]:
        """Total raw span duration per name within a category."""
        totals: Dict[str, float] = {}
        for event in self.spans(category):
            totals[event.name] = totals.get(event.name, 0.0) + event.dur
        return totals

    # -- export --------------------------------------------------------

    def to_chrome(self) -> Dict[str, Any]:
        """Render as a Chrome ``trace_event`` JSON object."""
        trace_events: List[Dict[str, Any]] = []
        for pid in sorted(self._process_names):
            trace_events.append({
                "ph": "M", "name": "process_name", "pid": pid,
                "tid": 0, "args": {"name": self._process_names[pid]},
            })
        for (pid, track), tid in sorted(self._tids.items()):
            trace_events.append({
                "ph": "M", "name": "thread_name", "pid": pid,
                "tid": tid, "args": {"name": track},
            })
        for event in self.events:
            rendered: Dict[str, Any] = {
                "ph": event.phase, "name": event.name,
                "cat": event.category or "default",
                "ts": event.ts * event.scale,
                "pid": event.pid, "tid": event.tid,
                "args": dict(event.args),
            }
            if event.phase == "X":
                rendered["dur"] = event.dur * event.scale
                rendered["args"].setdefault("span_id", event.span_id)
                if event.parent_id:
                    rendered["args"].setdefault(
                        "parent_span_id", event.parent_id
                    )
            elif event.phase == "i":
                rendered["s"] = "t"
            trace_events.append(rendered)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {"generator": "repro.obs"},
        }

    def to_json(self) -> str:
        """Deterministic serialization of :meth:`to_chrome`."""
        return json.dumps(self.to_chrome(), sort_keys=True,
                          separators=(",", ":"))

    def write(self, path: str) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())


def validate_chrome_trace(trace: Dict[str, Any]) -> List[str]:
    """Check a dict against the Chrome ``trace_event`` JSON schema.

    Returns a list of problems (empty when the trace is valid): the
    object must carry a ``traceEvents`` list whose entries have the
    required keys per phase — ``name``/``ph``/``pid``/``tid`` always,
    ``ts`` for timed phases, a non-negative ``dur`` for complete
    events, and numeric ``args`` for counter events.
    """
    problems: List[str] = []
    if not isinstance(trace, dict):
        return ["trace is not an object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        phase = event.get("ph")
        if phase not in ("X", "i", "C", "M", "B", "E"):
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if phase != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)):
                problems.append(f"{where}: missing numeric ts")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"{where}: complete event needs dur >= 0"
                )
        if phase == "C":
            args = event.get("args", {})
            if not args or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                problems.append(
                    f"{where}: counter args must be numeric"
                )
    return problems
