"""The :class:`Observer` handle threaded through the matching pipeline.

One object bundles the four observability capabilities — tracing spans,
metrics, logging and the injectable clock — so instrumented code takes a
single optional parameter instead of four.  Every capability is
individually optional; :data:`NULL_OBSERVER` (the default everywhere)
has none of them and its hot-path methods reduce to attribute checks, so
instrumentation stays out of the inner-loop cost profile.

Design notes
------------
* ``observer.span(...)`` always works as a context manager.  Without a
  tracer it yields a shared, inert :class:`~repro.obs.trace.Span` so the
  call site can set attributes unconditionally (they land in a throwaway
  dict).  Hot paths that would pay even that much guard with
  ``if observer.tracing:`` first.
* The Observer is **never pickled**: a trace leaves its process as
  plain span fragments (:meth:`~repro.obs.trace.Tracer.export_fragments`).
"""

from __future__ import annotations

import logging
from contextlib import nullcontext
from typing import Any

from repro.obs.clock import Clock, default_clock
from repro.obs.logbridge import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer


class Observer:
    """Bundle of tracer, metrics registry, logger and clock.

    All components default to absent/cheap: ``Observer()`` observes
    nothing and is safe (and nearly free) to call everywhere.
    """

    __slots__ = ("tracer", "metrics", "logger", "clock")

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        logger: logging.Logger | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.logger = logger if logger is not None else get_logger("repro")
        if clock is None:
            clock = tracer.clock if tracer is not None else default_clock
        self.clock: Clock = clock

    # ------------------------------------------------------------------
    @property
    def tracing(self) -> bool:
        """True when spans are actually being recorded."""
        return self.tracer is not None

    @property
    def enabled(self) -> bool:
        """True when any sink (tracer or metrics) is attached."""
        return self.tracer is not None or self.metrics is not None

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> Any:
        """Open a span (no-op context manager when tracing is off)."""
        if self.tracer is not None:
            return self.tracer.span(name, **attributes)
        return _NULL_CONTEXT

    def event(self, name: str, **attributes: Any) -> None:
        """Record an instant marker (dropped when tracing is off)."""
        if self.tracer is not None:
            self.tracer.event(name, **attributes)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0, help: str = "") -> None:
        if self.metrics is not None:
            self.metrics.counter(name, help).inc(amount)

    def gauge(self, name: str, value: float, help: str = "") -> None:
        if self.metrics is not None:
            self.metrics.gauge(name, help).set(value)

    def observe(self, name: str, value: float, help: str = "") -> None:
        if self.metrics is not None:
            self.metrics.histogram(name, help).observe(value)

    # ------------------------------------------------------------------
    # Logging
    # ------------------------------------------------------------------
    def warning(self, message: str, *args: Any) -> None:
        self.logger.warning(message, *args)

    def info(self, message: str, *args: Any) -> None:
        self.logger.info(message, *args)

    def debug(self, message: str, *args: Any) -> None:
        self.logger.debug(message, *args)


#: Shared inert span handed out by the null ``span()`` path, through one
#: reusable context manager.  Its attribute dict is reused (and may
#: accumulate garbage) — that is fine, nobody ever reads it.
_NULL_SPAN = Span(name="null", start=0.0, end=0.0)
_NULL_CONTEXT = nullcontext(_NULL_SPAN)


#: The default observer: no tracer, no metrics, root library logger.
NULL_OBSERVER = Observer()
