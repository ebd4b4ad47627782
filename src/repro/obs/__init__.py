"""Unified observability: structured tracing, metrics, profiling.

The one subsystem every layer of the SDK reports into (the runtime
"monitoring of data and resources" the paper promises in §IV, applied
to the whole stack):

* :mod:`repro.obs.tracer` — nested spans, instants and counters with
  deterministic ids and Chrome ``trace_event`` JSON export (open the
  file in Perfetto or ``chrome://tracing``);
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms with labeled series and deterministic snapshots;
* :mod:`repro.obs.clock` — wall, simulated and logical time sources;
* :mod:`repro.obs.context` — the ambient :class:`Observation` that
  instrumented code reports to (install one with :func:`observe`);
* :mod:`repro.obs.driver` — spec-to-traced-run harness behind
  ``python -m repro run`` (and its ``--trace`` / ``--metrics``).

Quick start::

    from repro.obs import observe, session
    obs = session(deterministic=True)
    with observe(obs):
        ...  # compile / explore / deploy as usual
    obs.tracer.write("trace.json")
    print(obs.metrics.render_text())
"""

from repro.obs.clock import Clock, LogicalClock, SimClock, WallClock
from repro.obs.context import (
    Observation,
    current,
    current_metrics,
    current_tracer,
    observe,
    session,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracer import (
    MAIN_TRACK,
    Span,
    TraceEvent,
    Tracer,
    validate_chrome_trace,
)

__all__ = [
    "Clock",
    "WallClock",
    "SimClock",
    "LogicalClock",
    "Observation",
    "observe",
    "session",
    "current",
    "current_tracer",
    "current_metrics",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "Tracer",
    "TraceEvent",
    "Span",
    "MAIN_TRACK",
    "validate_chrome_trace",
]
