"""Tests for the discrete-event simulation engine."""

import pytest

from repro.errors import PlatformError
from repro.platform.simulator import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestTimeouts:
    def test_single_timeout_advances_clock(self, sim):
        def body():
            yield sim.timeout(2.5)
            return sim.now

        assert sim.run_process(body()) == 2.5

    def test_sequential_timeouts_accumulate(self, sim):
        def body():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)
            return sim.now

        assert sim.run_process(body()) == 3.0

    @pytest.mark.parametrize("delay", [-1, float("nan")])
    def test_negative_timeout_rejected(self, sim, delay):
        with pytest.raises(ValueError):
            sim.timeout(delay)

    def test_zero_timeout_allowed(self, sim):
        def body():
            yield sim.timeout(0)
            return "done"

        assert sim.run_process(body()) == "done"

    def test_run_until_stops_early(self, sim):
        def body():
            yield sim.timeout(100.0)

        sim.process(body())
        sim.run(until=10.0)
        assert sim.now == 10.0


class TestDeterminism:
    def test_same_timestamp_fires_in_insertion_order(self, sim):
        order = []

        def make(tag):
            def body():
                yield sim.timeout(1.0)
                order.append(tag)
            return body

        for tag in ("a", "b", "c"):
            sim.process(make(tag)())
        sim.run()
        assert order == ["a", "b", "c"]


class TestEvents:
    def test_event_wakes_waiter_with_value(self, sim):
        event = sim.event()
        results = []

        def waiter():
            value = yield event
            results.append(value)

        def trigger():
            yield sim.timeout(5.0)
            event.trigger("payload")

        sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert results == ["payload"]
        assert sim.now == 5.0

    def test_already_triggered_event_resumes_immediately(self, sim):
        event = sim.event()
        event.trigger(42)

        def waiter():
            value = yield event
            return value

        assert sim.run_process(waiter()) == 42

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.trigger()
        with pytest.raises(PlatformError):
            event.trigger()


class TestResources:
    def test_capacity_serializes_holders(self, sim):
        resource = sim.resource(1)
        finish_times = []

        def worker():
            yield resource.request()
            yield sim.timeout(10.0)
            resource.release()
            finish_times.append(sim.now)

        for _ in range(3):
            sim.process(worker())
        sim.run()
        assert finish_times == [10.0, 20.0, 30.0]

    def test_capacity_two_overlaps(self, sim):
        resource = sim.resource(2)
        finish_times = []

        def worker():
            yield resource.request()
            yield sim.timeout(10.0)
            resource.release()
            finish_times.append(sim.now)

        for _ in range(4):
            sim.process(worker())
        sim.run()
        assert finish_times == [10.0, 10.0, 20.0, 20.0]

    def test_release_without_request_rejected(self, sim):
        resource = sim.resource(1)
        with pytest.raises(PlatformError):
            resource.release()

    def test_queued_requests_run_back_to_back(self, sim):
        resource = sim.resource(1)
        queued = []

        def worker():
            yield resource.request()
            queued.append(len(resource._queue))
            yield sim.timeout(1.0)
            resource.release()

        for _ in range(3):
            sim.process(worker())
        sim.run()
        assert queued == [2, 1, 0]
        assert (sim.now, resource.in_use) == (3.0, 0)


class TestProcessComposition:
    def test_waiting_on_process_result(self, sim):
        """Joiners of a running child resume in subscription order with
        its result; one joining after it finished resumes at once."""
        log = []

        def child():
            yield sim.timeout(3.0)
            return "child-result"

        def parent(tag, delay):
            yield sim.timeout(delay)
            result = yield handle
            log.append((tag, sim.now, result))

        handle = sim.process(child())
        for tag, delay in (("b", 1.0), ("a", 2.0), ("late", 4.0)):
            sim.process(parent(tag, delay))
        sim.run()
        assert log == [("b", 3.0, "child-result"), ("a", 3.0, "child-result"),
                       ("late", 4.0, "child-result")]

    def test_parent_joins_children_in_turn(self, sim):
        """Yielding a child that has already finished resumes the
        parent at once with that child's result."""

        def child(delay, value):
            yield sim.timeout(delay)
            return value

        def parent():
            children = [sim.process(child(3 - i, i)) for i in range(3)]
            results = []
            for handle in children:
                results.append((yield handle))
            return results

        assert sim.run_process(parent()) == [0, 1, 2]
        assert sim.now == 3.0

    def test_deadlock_detected(self, sim):
        event = sim.event()  # never triggered

        def stuck():
            yield event

        with pytest.raises(PlatformError, match="deadlock"):
            sim.run_process(stuck())

    def test_invalid_yield_rejected(self, sim):
        def bad():
            yield "not-an-event"

        with pytest.raises(PlatformError, match="unsupported"):
            sim.run_process(bad())
