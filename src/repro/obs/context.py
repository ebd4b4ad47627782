"""The ambient observation context.

Instrumented code across the SDK (compiler passes, DSE, workflow
servers, the autotuner, the platform) reports to whatever
:class:`Observation` is currently installed, OpenTelemetry-style:

    from repro.obs import observe, session
    obs = session()                  # enabled tracer + fresh metrics
    with observe(obs):
        app = EverestCompiler().compile(pipeline)
    obs.tracer.write("trace.json")

By default the ambient tracer is *disabled* (every call a cheap no-op)
and the ambient metrics registry is a real one, so counters accumulate
even outside a session. Nothing here is thread-local: the SDK is
single-threaded by design (the platform is a discrete-event simulator).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.clock import LogicalClock, WallClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


@dataclass
class Observation:
    """One observation session: a tracer plus a metrics registry."""

    tracer: Tracer = field(
        default_factory=lambda: Tracer(enabled=False)
    )
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)


_ambient = Observation()


def current() -> Observation:
    """The currently installed observation context."""
    return _ambient


def current_tracer() -> Tracer:
    """The ambient tracer (disabled unless a session is installed)."""
    return _ambient.tracer


def current_metrics() -> MetricsRegistry:
    """The ambient metrics registry."""
    return _ambient.metrics


@contextmanager
def observe(observation: Observation) -> Iterator[Observation]:
    """Install ``observation`` as the ambient context for the block."""
    global _ambient
    previous = _ambient
    _ambient = observation
    try:
        yield observation
    finally:
        _ambient = previous


def session(deterministic: bool = False) -> Observation:
    """Create an enabled observation session.

    ``deterministic`` selects a :class:`~repro.obs.clock.LogicalClock`
    so the resulting trace is byte-identical across runs of the same
    seeded workload; otherwise the tracer profiles wall time.
    """
    clock = LogicalClock() if deterministic else WallClock()
    return Observation(
        tracer=Tracer(clock=clock, enabled=True),
        metrics=MetricsRegistry(),
    )
