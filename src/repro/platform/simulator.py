"""Minimal generator-based discrete-event simulation engine.

This is the substrate that stands in for the physical EVEREST testbed
(see DESIGN.md, *Substitutions*). Processes are Python generators that
yield :class:`Timeout` or :class:`Request` objects; the engine advances
virtual time and resumes them, in the style of SimPy but with only the
features the SDK needs:

* ``Simulator.process(gen)`` — register a process.
* ``yield sim.timeout(delay)`` — suspend for simulated seconds.
* ``yield resource.request()`` / ``resource.release()`` — contend for a
  finite-capacity resource (FPGA role slot, memory channel, link).
* ``yield event`` — wait for an explicit :class:`Event` to be triggered.

Determinism: events scheduled at the same timestamp fire in insertion
order (a monotonically increasing sequence number breaks heap ties).
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Generator, List, Optional, Tuple

from repro.diagnostics import diagnosed_error
from repro.errors import PlatformError
from repro.utils.validation import check_non_negative, check_positive

#: Tracer category for resource occupancy / queue-depth counters.
RESOURCE_CATEGORY = "platform.resource"


class Event:
    """A one-shot event processes can wait on.

    An event is *triggered* at most once with an optional value; every
    process waiting on it resumes with that value.
    """

    def __init__(self, sim: "Simulator"):
        self._sim = sim
        self.triggered = False
        self.value: Any = None
        self._waiters: List["Process"] = []

    def trigger(self, value: Any = None) -> None:
        """Fire the event, resuming all waiters at the current time."""
        if self.triggered:
            raise PlatformError("event already triggered")
        self.triggered = True
        self.value = value
        for process in self._waiters:
            self._sim._schedule(0.0, process, value)
        self._waiters.clear()

    def _subscribe(self, process: "Process") -> None:
        if self.triggered:
            self._sim._schedule(0.0, process, self.value)
        else:
            self._waiters.append(process)


class Timeout:
    """Suspend the yielding process for ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        self.delay = check_non_negative("delay", delay)


class Request:
    """Acquire one unit of a :class:`SimResource` (FIFO queuing)."""

    def __init__(self, resource: "SimResource"):
        self.resource = resource


class Process:
    """A running generator inside the simulator."""

    __slots__ = ("_sim", "_gen", "name", "finished", "result", "_done")

    def __init__(self, sim: "Simulator", gen: Generator, name: str):
        self._sim = sim
        self._gen = gen
        self.name = name
        self.finished = False
        self.result: Any = None
        self._done: Optional[Event] = None

    @property
    def done_event(self) -> Event:
        """Triggered with the result when the process finishes; made on
        first use (already triggered if the process has finished)."""
        if self._done is None:
            self._done = Event(self._sim)
            if self.finished:
                self._done.trigger(self.result)
        return self._done

    def _step(self, value: Any) -> None:
        if self.finished:
            return
        try:
            yielded = self._gen.send(value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            if self._done is not None:
                self._done.trigger(stop.value)
            return
        if type(yielded) is Timeout:  # the common event, checked first
            self._sim._schedule(yielded.delay, self, None)
        elif isinstance(yielded, Request):
            yielded.resource._enqueue(self)
        elif isinstance(yielded, Event):
            yielded._subscribe(self)
        elif isinstance(yielded, Process):
            yielded.done_event._subscribe(self)
        else:
            raise PlatformError(
                f"process {self.name!r} yielded unsupported object "
                f"{yielded!r}"
            )


class SimResource:
    """A finite-capacity resource with FIFO admission.

    Models contended platform entities: FPGA role slots, DMA engines,
    memory channels, network links. ``capacity`` units can be held at
    once; further requesters queue.
    """

    def __init__(self, sim: "Simulator", capacity: int, name: str = ""):
        self._sim = sim
        self.capacity = int(check_positive("capacity", capacity))
        self.name = name or f"resource@{id(self):x}"
        self.in_use = 0
        self._queue: List[Process] = []

    def _record_occupancy(self) -> None:
        """Emit busy/queue counters into the simulator's tracer."""
        tracer = self._sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.counter(
                f"resource:{self.name}",
                float(self.in_use),
                category=RESOURCE_CATEGORY,
                track=self.name,
            )
            tracer.counter(
                f"queue:{self.name}",
                float(len(self._queue)),
                category=RESOURCE_CATEGORY,
                track=self.name,
            )

    def request(self) -> Request:
        """Return a request object to ``yield`` from a process."""
        return Request(self)

    def release(self) -> None:
        """Return one unit; wakes the head of the queue if any."""
        if self.in_use <= 0:
            raise diagnosed_error(
                PlatformError, "SIM001",
                f"release of {self.name!r} without matching request",
                anchor=self.name, analysis="simulator",
            )
        self.in_use -= 1
        if self._queue:
            process = self._queue.pop(0)
            self.in_use += 1
            self._sim._schedule(0.0, process, None)
        self._record_occupancy()

    def _enqueue(self, process: Process) -> None:
        if self.in_use < self.capacity:
            self.in_use += 1
            self._sim._schedule(0.0, process, None)
        else:
            self._queue.append(process)
        self._record_occupancy()


class Simulator:
    """The discrete-event engine: a clock and an ordered event heap."""

    def __init__(self):
        self.now = 0.0
        self._heap: List[Tuple[float, int, Process, Any]] = []
        self._sequence = count()  # breaks same-time ties: insertion order
        self._spawned = count()  # counts every process; names unnamed ones
        #: Optional :class:`repro.obs.Tracer` observing this run;
        #: resources report occupancy into it when one is attached.
        self.tracer: Optional[Any] = None

    def process(
        self, gen: Generator, name: str = ""
    ) -> Process:
        """Register a generator as a process starting at the current time."""
        index = next(self._spawned)
        process = Process(self, gen, name or f"process-{index}")
        self._schedule(0.0, process, None)
        return process

    def timeout(self, delay: float) -> Timeout:
        """Create a timeout to ``yield`` from a process."""
        return Timeout(delay)

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def resource(self, capacity: int, name: str = "") -> SimResource:
        """Create a finite-capacity resource owned by this simulator."""
        return SimResource(self, capacity, name)

    def _schedule(self, delay: float, process: Process, value: Any) -> None:
        heappush(self._heap,
                 (self.now + delay, next(self._sequence), process, value))

    def run(self, until: Optional[float] = None) -> float:
        """Advance the clock until the heap drains or ``until`` is reached.

        Returns the final simulated time.
        """
        heap = self._heap
        while heap and (until is None or heap[0][0] <= until):
            time, _seq, process, value = heappop(heap)
            self.now = time
            process._step(value)
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Convenience: register ``gen``, run to completion, return result."""
        process = self.process(gen, name)
        self.run()
        if not process.finished:
            raise diagnosed_error(
                PlatformError, "SIM002",
                f"process {process.name!r} deadlocked "
                f"(simulation drained at t={self.now})",
                anchor=process.name, analysis="simulator",
            )
        return process.result
