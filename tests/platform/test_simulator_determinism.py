"""Determinism pins for the discrete-event engine.

The chaos replay guarantee (same seeds → byte-identical trace) rests
on one property of the simulator: events scheduled at the same
timestamp fire in insertion order. These tests pin that tie-breaking
contract — including resource request/release interleavings — so a
future heap or queue change cannot silently reorder same-time events.
"""

from repro.platform.simulator import Simulator


def test_same_timestamp_fires_in_insertion_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c", "d", "e"):
        sim.process(proc(tag))
    sim.run()
    assert order == ["a", "b", "c", "d", "e"]


def test_insertion_order_beats_registration_gymnastics():
    """Two processes reach t=2.0 via different schedules; the one whose
    *final* event was pushed first wins the tie."""
    sim = Simulator()
    order = []

    def late_then_short():
        # pushes its t=2.0 event at t=1.0 (after early's, pushed at 0.5)
        yield sim.timeout(1.0)
        yield sim.timeout(1.0)
        order.append("late")

    def early_then_long():
        yield sim.timeout(0.5)
        yield sim.timeout(1.5)
        order.append("early")

    sim.process(late_then_short())
    sim.process(early_then_long())
    sim.run()
    assert order == ["early", "late"]


def test_event_trigger_resumes_waiters_in_subscription_order():
    sim = Simulator()
    gate = sim.event()
    order = []

    def waiter(tag):
        yield gate
        order.append(tag)

    def opener():
        yield sim.timeout(1.0)
        gate.trigger()

    sim.process(waiter("first"))
    sim.process(waiter("second"))
    sim.process(waiter("third"))
    sim.process(opener())
    sim.run()
    assert order == ["first", "second", "third"]


def test_resource_grants_are_fifo_across_release():
    """Capacity-1 resource: A holds it, B and C queue in request
    order. A's release hands the unit to B, then B's to C."""
    sim = Simulator()
    resource = sim.resource(1, name="slot")
    order = []

    def holder(tag, hold_s):
        yield resource.request()
        order.append(f"{tag}:acquired@{sim.now}")
        yield sim.timeout(hold_s)
        resource.release()

    sim.process(holder("a", 5.0))
    sim.process(holder("b", 1.0))
    sim.process(holder("c", 1.0))
    sim.run()
    assert order == [
        "a:acquired@0.0",
        "b:acquired@5.0",
        "c:acquired@6.0",
    ]
    assert resource.in_use == 0


def test_same_time_request_release_interleaving_is_stable():
    """A release and a new request land at the same timestamp: the
    release (scheduled first) wakes the queued process before the
    newcomer is considered, so the queue stays strictly FIFO."""
    sim = Simulator()
    resource = sim.resource(1)
    order = []

    def holder():
        yield resource.request()
        yield sim.timeout(1.0)
        resource.release()
        order.append("released")

    def queued():
        yield sim.timeout(0.5)
        yield resource.request()
        order.append("queued-acquired")
        resource.release()

    def newcomer():
        # arrives exactly when the holder releases
        yield sim.timeout(1.0)
        yield resource.request()
        order.append("newcomer-acquired")
        resource.release()

    sim.process(holder())
    sim.process(queued())
    sim.process(newcomer())
    sim.run()
    assert order == ["released", "queued-acquired",
                     "newcomer-acquired"]


def test_identical_runs_produce_identical_event_logs():
    """The full interleaving — timeouts, events, resources — replays
    identically across fresh simulator instances."""

    def run_once():
        sim = Simulator()
        resource = sim.resource(2)
        gate = sim.event()
        log = []

        def contender(tag, delay):
            yield sim.timeout(delay)
            yield resource.request()
            log.append((sim.now, f"{tag}:in"))
            yield sim.timeout(1.0)
            resource.release()
            log.append((sim.now, f"{tag}:out"))
            if tag == "c":
                gate.trigger()

        def watcher():
            yield gate
            log.append((sim.now, "gate"))

        sim.process(watcher())
        for tag, delay in (
            ("a", 0.0), ("b", 0.0), ("c", 0.0),
            ("d", 1.0), ("e", 1.0),
        ):
            sim.process(contender(tag, delay))
        sim.run()
        return log

    first = run_once()
    second = run_once()
    assert first == second
    assert first  # the scenario actually logged something


def test_heap_order_invariant_under_many_processes():
    """100 processes all waking at the same three timestamps resume in
    registration order at every timestamp."""
    sim = Simulator()
    order = []

    def proc(index):
        for _ in range(3):
            yield sim.timeout(1.0)
            order.append((sim.now, index))

    for index in range(100):
        sim.process(proc(index))
    sim.run()
    for time in (1.0, 2.0, 3.0):
        at_time = [idx for when, idx in order if when == time]
        assert at_time == list(range(100))
