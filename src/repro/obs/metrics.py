"""Process-wide metrics registry with Prometheus text exposition.

A zero-dependency implementation of the three instrument kinds the
registry fabric needs — :class:`Counter`, :class:`Gauge`,
:class:`Histogram` — collected in a :class:`MetricsRegistry` and
rendered in the Prometheus text exposition format (version 0.0.4) by
:func:`render_prometheus`, which ``GET /metrics?format=prometheus``
serves.

Unlike tracing (:mod:`repro.obs.trace`), metrics are always on: the
instruments are plain dict-and-float bookkeeping cheap enough to leave
enabled, and a process-wide default registry (:func:`registry`) lets
instrumented modules share one scrape surface without plumbing.
Instruments declare their label *names* up front; each distinct label
*value* combination materialises a separate child series, exactly the
Prometheus data model.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "set_registry",
    "reset_registry",
    "render_prometheus",
    "escape_label_value",
    "PROMETHEUS_CONTENT_TYPE",
    "STAGE_BUCKETS",
]

#: The content type Prometheus scrapers expect from a text endpoint.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default histogram buckets — tuned for sub-second eval latencies but
#: wide enough for cold multi-second compiles (upper bounds in the
#: instrument's native unit, typically seconds).
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Finer bounds for per-stage and per-request timings: a 0.1 ms floor
#: (warm service reads take well under 1 ms) through cold multi-second
#: compiles.
STAGE_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)

_LabelKey = Tuple[str, ...]


def escape_label_value(value: str) -> str:
    """A label value escaped per the exposition format.

    Backslash, double-quote and newline are the three characters the
    format requires escaping inside quoted label values.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    """A sample value rendered the way Prometheus parsers expect."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _label_pairs(
    names: Sequence[str], values: _LabelKey
) -> List[Tuple[str, str]]:
    return list(zip(names, values))


def _render_labels(pairs: Sequence[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    body = ",".join(
        f'{name}="{escape_label_value(str(value))}"'
        for name, value in pairs
    )
    return "{" + body + "}"


class _Instrument:
    """Shared bookkeeping for all instrument kinds.

    Holds the metric name, help string, declared label names and the
    per-label-value children map; subclasses define what a child's
    state looks like and how it renders.
    """

    kind = "untyped"

    def __init__(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> None:
        """Declare the instrument (no series exist until first use)."""
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[_LabelKey, object] = {}

    def _key(self, labels: Dict[str, str]) -> _LabelKey:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def samples(self) -> List[Tuple[str, List[Tuple[str, str]], float]]:
        """``(suffix, label_pairs, value)`` rows for exposition."""
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically increasing count (restarts reset it)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (default 1) to the labelled series."""
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up")
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """The current count of the labelled series (0 if unused)."""
        with self._lock:
            return float(self._children.get(self._key(labels), 0.0))

    def samples(self) -> List[Tuple[str, List[Tuple[str, str]], float]]:
        """``(suffix, label_pairs, value)`` rows for exposition."""
        with self._lock:
            children = dict(self._children)
        return [
            ("", _label_pairs(self.labelnames, key), float(total))
            for key, total in sorted(children.items())
        ]


class Gauge(_Instrument):
    """A value that can go up and down (queue depth, breaker state)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        """Set the labelled series to ``value``."""
        key = self._key(labels)
        with self._lock:
            self._children[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (may be negative) to the labelled series."""
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """The current value of the labelled series (0 if unset)."""
        with self._lock:
            return float(self._children.get(self._key(labels), 0.0))

    def samples(self) -> List[Tuple[str, List[Tuple[str, str]], float]]:
        """``(suffix, label_pairs, value)`` rows for exposition."""
        with self._lock:
            children = dict(self._children)
        return [
            ("", _label_pairs(self.labelnames, key), float(value))
            for key, value in sorted(children.items())
        ]


class Histogram(_Instrument):
    """Cumulative-bucket distribution of observed values.

    Renders the full Prometheus histogram contract: one
    ``_bucket{le="..."}`` series per declared upper bound plus
    ``le="+Inf"``, and ``_sum`` / ``_count`` totals.  Bucket counts are
    cumulative, so they are monotonically non-decreasing across
    increasing ``le`` — the property the exposition tests pin.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        """Declare the histogram with sorted finite bucket bounds."""
        super().__init__(name, help, labelnames)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"{name}: at least one bucket bound required")
        self.buckets = tuple(bounds)

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation into the labelled series."""
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = {
                    "counts": [0] * len(self.buckets),
                    "sum": 0.0,
                    "count": 0,
                }
            slot = bisect_left(self.buckets, value)
            if slot < len(self.buckets):
                child["counts"][slot] += 1
            child["sum"] += value
            child["count"] += 1

    def count(self, **labels: str) -> int:
        """Total observations recorded for the labelled series."""
        with self._lock:
            child = self._children.get(self._key(labels))
            return int(child["count"]) if child else 0

    def sum(self, **labels: str) -> float:
        """Sum of the observations recorded for the labelled series."""
        with self._lock:
            child = self._children.get(self._key(labels))
            return float(child["sum"]) if child else 0.0

    def quantile(self, q: float, **labels: str) -> Optional[float]:
        """The ``q``-quantile of the labelled series, as a bucket bound.

        The upper bound of the first bucket whose cumulative count
        reaches ``q * count``: an upper estimate, exact only to the
        bucket resolution.  ``None`` when the series is empty or the
        quantile falls past the last finite bound.
        """
        with self._lock:
            child = self._children.get(self._key(labels))
            if child is None:
                return None
            rank = q * child["count"]
            cumulative = 0
            for bound, count in zip(self.buckets, child["counts"]):
                cumulative += count
                if cumulative >= rank:
                    return bound
        return None

    def samples(self) -> List[Tuple[str, List[Tuple[str, str]], float]]:
        """``(suffix, label_pairs, value)`` rows for exposition."""
        with self._lock:
            children = {
                key: {
                    "counts": list(child["counts"]),
                    "sum": child["sum"],
                    "count": child["count"],
                }
                for key, child in self._children.items()
            }
        rows: List[Tuple[str, List[Tuple[str, str]], float]] = []
        for key, child in sorted(children.items()):
            pairs = _label_pairs(self.labelnames, key)
            cumulative = 0
            for bound, count in zip(self.buckets, child["counts"]):
                cumulative += count
                rows.append(
                    (
                        "_bucket",
                        pairs + [("le", _format_value(float(bound)))],
                        float(cumulative),
                    )
                )
            rows.append(
                ("_bucket", pairs + [("le", "+Inf")], float(child["count"]))
            )
            rows.append(("_sum", pairs, float(child["sum"])))
            rows.append(("_count", pairs, float(child["count"])))
        return rows


class MetricsRegistry:
    """A named collection of instruments with one scrape surface.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the
    first call declares the instrument, later calls with the same name
    return the same object (and reject conflicting redeclarations), so
    distant modules can share a series without import-order coupling.
    """

    def __init__(self) -> None:
        """An empty registry."""
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    def _get_or_create(
        self, cls, name: str, help: str, labelnames: Sequence[str], **kwargs
    ) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != (
                    tuple(labelnames)
                ):
                    raise ValueError(
                        f"{name}: already registered as "
                        f"{existing.kind}{existing.labelnames}"
                    )
                return existing
            instrument = cls(name, help, labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        """Get or declare a counter."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        """Get or declare a gauge."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or declare a histogram."""
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def instruments(self) -> List[_Instrument]:
        """Every declared instrument, sorted by metric name."""
        with self._lock:
            return [
                self._instruments[name]
                for name in sorted(self._instruments)
            ]


def render_prometheus(source: Optional[MetricsRegistry] = None) -> str:
    """The registry in Prometheus text exposition format.

    Every declared instrument renders a ``# HELP`` / ``# TYPE`` header
    even before its first sample, so scrapers discover the full metric
    set immediately.
    """
    reg = source if source is not None else registry()
    lines: List[str] = []
    for instrument in reg.instruments():
        help_text = (
            instrument.help.replace("\\", "\\\\").replace("\n", "\\n")
        )
        lines.append(f"# HELP {instrument.name} {help_text}")
        lines.append(f"# TYPE {instrument.name} {instrument.kind}")
        for suffix, pairs, value in instrument.samples():
            lines.append(
                f"{instrument.name}{suffix}"
                f"{_render_labels(pairs)} {_format_value(value)}"
            )
    return "\n".join(lines) + "\n"


#: The process-wide default registry instrumented modules share.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _REGISTRY


def set_registry(reg: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the previous."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = reg
    return previous


def reset_registry() -> MetricsRegistry:
    """Swap in a fresh, empty process-wide registry and return it."""
    fresh = MetricsRegistry()
    set_registry(fresh)
    return fresh
