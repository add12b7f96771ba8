"""Observability layer: tracing, metrics, and profiling hooks.

``repro.obs`` is the cross-cutting telemetry package the runtime,
engine, index and service all hook into:

* :mod:`repro.obs.trace` — span tracing with a module-global no-op
  default (install a tracer to record; pay one ``is None`` check when
  off), cross-process stitching for ``ShardedRunner`` workers, and
  Chrome trace-event export for Perfetto.
* :mod:`repro.obs.metrics` — always-on counters/gauges/histograms
  with Prometheus text exposition, shared through a process-wide
  default registry.

The :func:`stage` helper fuses both: it opens a span *and* observes
the elapsed seconds into the ``repro_eval_stage_seconds`` histogram,
so one ``with stage("eval.stacked"):`` line feeds the trace file, the
``--stats`` breakdown, and the ``/metrics`` scrape at once.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from . import metrics, trace
from .metrics import (
    MetricsRegistry,
    registry,
    render_prometheus,
    reset_registry,
)
from .trace import Span, Tracer, active, span, tracing

__all__ = [
    "metrics",
    "trace",
    "MetricsRegistry",
    "registry",
    "render_prometheus",
    "reset_registry",
    "Span",
    "Tracer",
    "active",
    "span",
    "tracing",
    "stage",
    "stage_histogram",
]

def stage_histogram() -> metrics.Histogram:
    """The shared ``repro_eval_stage_seconds`` histogram.

    Resolved lazily from the current default registry so tests that
    swap registries (:func:`reset_registry`) observe into the fresh
    one.
    """
    return registry().histogram(
        "repro_eval_stage_seconds",
        "Wall-clock seconds spent per pipeline stage.",
        labelnames=("stage",),
        buckets=metrics.STAGE_BUCKETS,
    )


@contextmanager
def stage(name: str, **attributes: object) -> Iterator[None]:
    """Span + stage-seconds histogram for one pipeline stage.

    Opens ``span(name, **attributes)`` (a no-op without an installed
    tracer) and always observes the block's elapsed seconds into
    ``repro_eval_stage_seconds{stage=name}``.
    """
    start = time.perf_counter()
    with span(name, **attributes):
        try:
            yield
        finally:
            stage_histogram().observe(
                time.perf_counter() - start, stage=name
            )
