"""Observability for the matching pipeline: spans, metrics, manifests.

See ``docs/observability.md`` for the span taxonomy, metric names and
exporter formats.  The single entry point most code needs is
:class:`Observer` (default :data:`NULL_OBSERVER`), threaded through the
engine, matchers, composite search, store and service.
"""

from repro.obs.clock import Clock, FakeClock, default_clock
from repro.obs.logbridge import configure_logging, get_logger
from repro.obs.manifest import RunManifest, environment_metadata, stage_timings
from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.trace import Span, TraceError, Tracer

__all__ = [
    "Clock",
    "Counter",
    "FakeClock",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "Observer",
    "PROMETHEUS_CONTENT_TYPE",
    "RunManifest",
    "Span",
    "TraceError",
    "Tracer",
    "configure_logging",
    "default_clock",
    "environment_metadata",
    "get_logger",
    "stage_timings",
]
