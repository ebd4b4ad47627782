"""Metrics registry: counters, gauges and histograms with labels.

Prometheus-shaped, dependency-free. Instruments are created through a
:class:`MetricsRegistry` (one per observation session) and identified
by name; each holds independent series per label set:

* :class:`Counter` — monotonically increasing totals (tasks executed,
  DSE points evaluated, vFPGA reconfigurations);
* :class:`Gauge` — last-write-wins levels (Pareto-front size, queue
  depth);
* :class:`Histogram` — observations bucketed at **fixed** boundaries
  chosen at creation, with cumulative ``le`` semantics (a value lands
  in every bucket whose upper bound is >= the value, Prometheus-style)
  plus total count and sum.

Snapshots are plain data (:meth:`MetricsRegistry.snapshot`), rendered
as sorted, deterministic JSON (:meth:`MetricsRegistry.to_json`) or an
aligned text table (:meth:`MetricsRegistry.render_text`): identical
seeded runs produce identical snapshots.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import EverestError

#: Default histogram buckets: exponential seconds-ish decades.
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    if len(labels) == 1:  # most series have one label: nothing to sort
        [(name, value)] = labels.items()
        return ((name, str(value)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_text(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in key)
    return "{" + inner + "}"


class Instrument:
    """Base class: a named instrument holding labeled series."""

    kind = "abstract"

    def __init__(self, name: str, help: str = ""):
        """Create the instrument; registries call this, not users."""
        self.name = name
        self.help = help

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data state of every series."""
        raise NotImplementedError


class Counter(Instrument):
    """A monotonically increasing total per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        """Create an empty counter."""
        super().__init__(name, help)
        self._series: Dict[LabelKey, float] = {}

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        """Add ``value`` (must be >= 0) to the labeled series."""
        if value < 0:
            raise EverestError(
                f"counter {self.name!r}: negative increment {value}"
            )
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        """Current total of the labeled series (0 if never touched)."""
        return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label set."""
        return sum(self._series.values())

    def snapshot(self) -> Dict[str, Any]:
        """Series totals keyed by rendered label text."""
        return {
            _label_text(key) or "total": value
            for key, value in sorted(self._series.items())
        }


class Gauge(Instrument):
    """A last-write-wins level per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        """Create an empty gauge."""
        super().__init__(name, help)
        self._series: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        """Set the labeled series to ``value``."""
        self._series[_label_key(labels)] = float(value)

    def add(self, delta: float, **labels: Any) -> None:
        """Adjust the labeled series by ``delta`` (may be negative)."""
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + delta

    def value(self, **labels: Any) -> float:
        """Current level of the labeled series (0 if never set)."""
        return self._series.get(_label_key(labels), 0.0)

    def snapshot(self) -> Dict[str, Any]:
        """Series levels keyed by rendered label text."""
        return {
            _label_text(key) or "value": value
            for key, value in sorted(self._series.items())
        }


class Histogram(Instrument):
    """Bucketed observations with fixed boundaries per label set.

    ``buckets`` are the finite upper bounds, strictly increasing; an
    implicit ``+Inf`` bucket catches the rest. Cumulative semantics:
    ``counts[i]`` is the number of observations ``<= buckets[i]``.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        """Create the histogram with its fixed bucket boundaries."""
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise EverestError(
                f"histogram {name!r}: needs at least one bucket bound"
            )
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise EverestError(
                f"histogram {name!r}: bucket bounds must be strictly "
                f"increasing, got {bounds}"
            )
        if any(math.isnan(b) or math.isinf(b) for b in bounds):
            raise EverestError(
                f"histogram {name!r}: bucket bounds must be finite"
            )
        super().__init__(name, help)
        self.buckets = bounds
        # label key -> (per-bound cumulative counts + inf, count, sum)
        self._series: Dict[LabelKey, List[float]] = {}

    def _cells(self, key: LabelKey) -> List[float]:
        cells = self._series.get(key)
        if cells is None:
            cells = [0.0] * (len(self.buckets) + 3)
            self._series[key] = cells
        return cells

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation into the labeled series."""
        cells = self._cells(_label_key(labels))
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                cells[index] += 1
        cells[len(self.buckets)] += 1       # +Inf bucket
        cells[len(self.buckets) + 1] += 1   # count
        cells[len(self.buckets) + 2] += value  # sum

    def count(self, **labels: Any) -> float:
        """Number of observations in the labeled series."""
        cells = self._series.get(_label_key(labels))
        return cells[len(self.buckets) + 1] if cells else 0.0

    def sum(self, **labels: Any) -> float:
        """Sum of observations in the labeled series."""
        cells = self._series.get(_label_key(labels))
        return cells[len(self.buckets) + 2] if cells else 0.0

    def bucket_counts(self, **labels: Any) -> Dict[str, float]:
        """Cumulative count per bucket bound (including ``+Inf``)."""
        cells = self._series.get(_label_key(labels))
        if cells is None:
            cells = [0.0] * (len(self.buckets) + 3)
        rendered = {
            repr(bound): cells[index]
            for index, bound in enumerate(self.buckets)
        }
        rendered["+Inf"] = cells[len(self.buckets)]
        return rendered

    def snapshot(self) -> Dict[str, Any]:
        """Bucket counts, count and sum per label set."""
        out: Dict[str, Any] = {}
        for key in sorted(self._series):
            cells = self._series[key]
            out[_label_text(key) or "series"] = {
                "buckets": self.bucket_counts(**dict(key)),
                "count": cells[len(self.buckets) + 1],
                "sum": cells[len(self.buckets) + 2],
            }
        return out


class MetricsRegistry:
    """Creates and holds instruments; the snapshot/export surface."""

    def __init__(self):
        """Create an empty registry."""
        self._instruments: Dict[str, Instrument] = {}

    def _get(self, name: str, kind: type, help: str,
             **kwargs: Any) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name, help, **kwargs)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise EverestError(
                f"metric {name!r} already registered as "
                f"{instrument.kind}, not {kind.kind}"
            )
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the named counter."""
        return self._get(name, Counter, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the named gauge."""
        return self._get(name, Gauge, help)  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        """Get or create the named histogram (fixed buckets)."""
        return self._get(  # type: ignore[return-value]
            name, Histogram, help,
            buckets=tuple(buckets) if buckets else DEFAULT_BUCKETS,
        )

    def names(self) -> List[str]:
        """Sorted names of every registered instrument."""
        return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data state of the whole registry, sorted by name."""
        return {
            name: {
                "kind": self._instruments[name].kind,
                "help": self._instruments[name].help,
                "series": self._instruments[name].snapshot(),
            }
            for name in self.names()
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Deterministic JSON rendering of :meth:`snapshot`."""
        return json.dumps(self.snapshot(), sort_keys=True,
                          indent=indent,
                          separators=None if indent else (",", ":"))

    def render_text(self, title: str = "metrics") -> str:
        """Aligned, human-readable snapshot."""
        lines = [f"# {title}"]
        for name in self.names():
            instrument = self._instruments[name]
            lines.append(f"{name} ({instrument.kind})")
            series = instrument.snapshot()
            for label, value in series.items():
                if isinstance(value, dict):  # histogram series
                    lines.append(
                        f"  {label}: count={value['count']:g} "
                        f"sum={value['sum']:.6g}"
                    )
                    for bound, count in value["buckets"].items():
                        lines.append(f"    le {bound}: {count:g}")
                else:
                    lines.append(f"  {label}: {value:g}")
        return "\n".join(lines)
