"""Nested, explicitly-clocked tracing spans.

A :class:`Tracer` records a forest of :class:`Span` trees.  Spans are
opened and closed strictly LIFO — the context-manager API makes that
automatic — so every emitted trace is balanced and properly nested by
construction; :meth:`Tracer.finish` raises :class:`TraceError` on any
attempt to close out of order.

The span taxonomy used across the pipeline (see ``docs/observability.md``):

========================  =====================================================
``match``                 root span of one CLI/matcher invocation
``ingest.parse``          reading one event log
``graph.build``           one dependency-graph (re)build
``ems.fixpoint``          one EMS similarity evaluation (all directions)
``ems.iteration[k]``      iteration *k* of one directional fixpoint
``pruning.freeze``        instant marker: Proposition-2/Uc freeze accounting
``composite.round[r]``    greedy round *r* of Algorithm 2
``candidate.evaluate``    one candidate evaluation of a greedy round
``match.assign``          the final Hungarian assignment
========================  =====================================================

A trace leaves its process as :meth:`~Tracer.export_fragments` (plain
dicts); :meth:`Span.from_dict` rebuilds the span trees on the other
side.

:meth:`Tracer.to_chrome_trace` renders the forest in the Chrome trace
event format (complete ``"X"`` events), loadable in ``chrome://tracing``
and Perfetto.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.clock import Clock, default_clock


class TraceError(RuntimeError):
    """A span was closed out of order (the trace would be unbalanced)."""


def _json_safe(value: Any) -> Any:
    """Coerce *value* into something ``json.dump`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    # NumPy scalars and anything else with an item()/float() view.
    for converter in (lambda v: v.item(), int, float):
        try:
            return converter(value)
        except (AttributeError, TypeError, ValueError):
            continue
    return str(value)


@dataclass(slots=True)
class Span:
    """One timed region with attributes and nested children.

    ``start``/``end`` are raw readings of the owning tracer's clock; an
    unfinished span has ``end = None`` and exports with zero duration.
    """

    name: str
    start: float
    end: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the children's durations, floored at zero."""
        return max(0.0, self.duration - sum(child.duration for child in self.children))

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attributes": _json_safe(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Span":
        return cls(
            name=payload["name"],
            start=payload["start"],
            end=payload.get("end"),
            attributes=dict(payload.get("attributes", {})),
            children=[cls.from_dict(child) for child in payload.get("children", ())],
        )


class Tracer:
    """Records a balanced forest of spans against one clock."""

    __slots__ = ("clock", "roots", "_stack")

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock: Clock = clock if clock is not None else default_clock
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # ------------------------------------------------------------------
    @property
    def open_depth(self) -> int:
        """How many spans are currently open (0 = balanced)."""
        return len(self._stack)

    def start(self, name: str, **attributes: Any) -> Span:
        """Open a span as a child of the innermost open span."""
        span = Span(name=name, start=self.clock(), attributes=attributes)
        (self._stack[-1].children if self._stack else self.roots).append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close *span*; it must be the innermost open span."""
        if not self._stack or self._stack[-1] is not span:
            innermost = self._stack[-1].name if self._stack else None
            raise TraceError(
                f"span {span.name!r} closed out of order "
                f"(innermost open: {innermost!r})"
            )
        span.end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """``with tracer.span("ems.fixpoint", pairs=n) as span: ...``"""
        opened = self.start(name, **attributes)
        try:
            yield opened
        finally:
            self.finish(opened)

    def event(self, name: str, **attributes: Any) -> Span:
        """An instant (zero-duration) marker attached at the current depth."""
        now = self.clock()
        span = Span(name=name, start=now, end=now, attributes=attributes)
        (self._stack[-1].children if self._stack else self.roots).append(span)
        return span

    # ------------------------------------------------------------------
    # Fragments
    # ------------------------------------------------------------------
    def export_fragments(self) -> list[dict[str, Any]]:
        """The recorded forest as plain dicts (picklable, JSON-safe)."""
        return [root.to_dict() for root in self.roots]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def all_spans(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()

    def to_chrome_trace(self, pid: int = 1) -> dict[str, Any]:
        """The forest in Chrome trace event format (``"X"`` events).

        Timestamps are microseconds relative to the earliest recorded
        span, so the trace loads cleanly in ``chrome://tracing`` and
        Perfetto regardless of the clock's epoch.
        """
        spans = list(self.all_spans())
        epoch = min((span.start for span in spans), default=0.0)
        events = []
        for span in spans:
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "pid": pid,
                    "tid": 0,
                    "ts": (span.start - epoch) * 1e6,
                    "dur": span.duration * 1e6,
                    "args": _json_safe(span.attributes),
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}
