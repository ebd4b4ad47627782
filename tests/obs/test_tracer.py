"""Tracer semantics: nesting, ordering, export, determinism."""

import json

import pytest

from repro.obs import (
    LogicalClock,
    Tracer,
    validate_chrome_trace,
)


def make_tracer() -> Tracer:
    return Tracer(clock=LogicalClock(), enabled=True, process="test")


class TestSpans:
    def test_nested_spans_get_parent_ids(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.parent_id == 0
        assert inner.parent_id == outer.span_id
        assert inner.span_id != outer.span_id

    def test_span_ids_are_sequential_and_deterministic(self):
        tracer = make_tracer()
        ids = []
        for index in range(3):
            with tracer.span(f"s{index}") as span:
                ids.append(span.span_id)
        assert ids == [1, 2, 3]

    def test_sibling_spans_share_parent(self):
        tracer = make_tracer()
        with tracer.span("parent") as parent:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == parent.span_id
        assert b.parent_id == parent.span_id

    def test_span_after_a_closed_sibling_does_not_nest(self):
        tracer = make_tracer()
        with tracer.span("one"):
            pass
        with tracer.span("two") as other:
            pass
        assert other.parent_id == 0

    def test_events_emitted_in_close_order(self):
        tracer = make_tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [event.name for event in tracer.events]
        assert names == ["inner", "outer"]

    def test_span_durations_non_negative_and_ordered(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        events = {event.name: event for event in tracer.events}
        assert events["inner"].dur >= 0
        assert events["outer"].dur >= events["inner"].dur
        assert events["outer"].ts <= events["inner"].ts

    def test_note_attaches_args(self):
        tracer = make_tracer()
        with tracer.span("s") as span:
            span.note(points=7)
        assert tracer.events[0].args["points"] == 7

    def test_complete_records_explicit_interval(self):
        tracer = make_tracer()
        tracer.complete("t", 2.0, 5.0, category="c", start=2.0)
        event = tracer.events[0]
        assert event.ts == 2.0
        assert event.dur == 3.0
        assert event.args["start"] == 2.0

    def test_total_durations_sums_per_name(self):
        tracer = make_tracer()
        tracer.complete("x", 0.0, 2.0, category="k")
        tracer.complete("x", 3.0, 4.0, category="k")
        tracer.complete("y", 0.0, 1.0, category="k")
        totals = tracer.total_durations("k")
        assert totals == {"x": 3.0, "y": 1.0}


class TestDisabled:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("s") as span:
            span.note(a=1)
        tracer.instant("i")
        tracer.counter("c", 1.0)
        tracer.complete("x", 0.0, 1.0)
        assert tracer.events == []

    def test_disabled_spans_share_one_object(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is tracer.span("b")


class TestAbsorb:
    def test_absorb_assigns_new_pid(self):
        host = make_tracer()
        guest = Tracer(clock=LogicalClock(), process="guest")
        guest.instant("hello", track="lane")
        host.absorb(guest, process="workflow:g")
        assert len(host.events) == 1
        assert host.events[0].pid != guest.events[0].pid

    def test_absorb_preserves_raw_timestamps(self):
        host = make_tracer()
        guest = Tracer(clock=LogicalClock(), process="guest")
        guest.complete("t", 1.5, 2.5)
        host.absorb(guest, process="workflow:g")
        assert host.events[0].ts == 1.5
        assert host.events[0].dur == 1.0

    def test_absorb_into_disabled_tracer_is_noop(self):
        host = Tracer(enabled=False)
        guest = make_tracer()
        guest.instant("i")
        host.absorb(guest, process="g")
        assert host.events == []

    def test_absorb_skips_foreign_processes(self):
        """Absorbing a tracer only takes its own events, not events it
        absorbed from elsewhere."""
        innermost = make_tracer()
        innermost.instant("deep")
        middle = make_tracer()
        middle.instant("own")
        middle.absorb(innermost, process="inner")
        host = make_tracer()
        host.absorb(middle, process="middle")
        assert [event.name for event in host.events] == ["own"]


class TestChromeExport:
    def test_export_is_valid_chrome_trace(self):
        tracer = make_tracer()
        with tracer.span("compile"):
            tracer.instant("fault")
            tracer.counter("queue", 3.0)
        trace = tracer.to_chrome()
        assert validate_chrome_trace(trace) == []

    def test_metadata_names_processes_and_threads(self):
        tracer = Tracer(clock=LogicalClock(), process="everest")
        tracer.instant("i", track="lane")
        trace = tracer.to_chrome()
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e["args"]["name"]) for e in meta}
        assert ("process_name", "everest") in names
        assert ("thread_name", "lane") in names

    def test_timestamps_scaled_to_microseconds(self):
        tracer = make_tracer()  # logical clock: scale 1.0
        tracer.complete("t", 10.0, 11.0)
        event = [
            e for e in tracer.to_chrome()["traceEvents"]
            if e["ph"] == "X"
        ][0]
        assert event["ts"] == 10.0
        assert event["dur"] == 1.0

    def test_json_is_deterministic(self):
        def build() -> str:
            tracer = make_tracer()
            with tracer.span("a"):
                tracer.counter("c", 1.0)
            return tracer.to_json()

        assert build() == build()

    def test_write_round_trips(self, tmp_path):
        tracer = make_tracer()
        tracer.instant("i")
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) != []

    def test_rejects_missing_trace_events(self):
        assert validate_chrome_trace({}) != []

    def test_rejects_negative_duration(self):
        trace = {"traceEvents": [{
            "ph": "X", "name": "x", "pid": 1, "tid": 0,
            "ts": 0.0, "dur": -1.0,
        }]}
        problems = validate_chrome_trace(trace)
        assert any("dur" in p for p in problems)

    def test_rejects_non_numeric_counter(self):
        trace = {"traceEvents": [{
            "ph": "C", "name": "c", "pid": 1, "tid": 0,
            "ts": 0.0, "args": {"c": "high"},
        }]}
        problems = validate_chrome_trace(trace)
        assert any("numeric" in p for p in problems)

    def test_rejects_unknown_phase(self):
        trace = {"traceEvents": [{
            "ph": "Z", "name": "z", "pid": 1, "tid": 0, "ts": 0.0,
        }]}
        assert validate_chrome_trace(trace) != []


class TestClocks:
    def test_logical_clock_ticks_monotonically(self):
        clock = LogicalClock()
        readings = [clock.now() for _ in range(3)]
        assert readings == sorted(readings)
        assert len(set(readings)) == 3

    def test_logical_clock_scale_is_unity(self):
        assert LogicalClock().scale == pytest.approx(1.0)
