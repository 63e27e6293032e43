"""Core event-data value types: :class:`Event` and :class:`Trace`.

An *event* is one recorded execution step of a business process; its
``activity`` is the label under which the step was logged (the paper calls
this the *event name*, which may be opaque).  A *trace* is the finite
sequence of events recorded for one case (one order, one ticket, ...).

These types are deliberately small and immutable: the heavy lifting lives
in :class:`repro.logs.log.EventLog` and the dependency-graph layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping


@dataclass(frozen=True, slots=True)
class Event:
    """A single recorded event.

    Parameters
    ----------
    activity:
        The event name (label).  This is the unit of matching: two logs are
        matched activity-by-activity, not occurrence-by-occurrence.
    timestamp:
        Optional completion time, seconds since an arbitrary epoch.  Only
        used by the XES/CSV serializers; the matching algorithms rely purely
        on the ordering within a trace.
    attributes:
        Optional extra payload (resource, cost...), preserved through
        serialization round-trips but ignored by matching.
    """

    activity: str
    timestamp: float | None = None
    attributes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.activity, str):
            raise TypeError(f"activity must be a string, got {type(self.activity).__name__}")
        if not self.activity:
            raise ValueError("activity must be a non-empty string")

    def with_activity(self, activity: str) -> "Event":
        """Return a copy of this event relabelled to *activity*."""
        return Event(activity, self.timestamp, self.attributes)


class Trace:
    """An immutable, ordered sequence of :class:`Event` objects.

    A trace records the steps taken for one case.  Traces compare equal when
    their activity sequences are equal — timestamps and attributes are
    treated as annotations, matching the paper's trace model in which a
    trace is an element of ``V*``.
    """

    __slots__ = ("_events", "_activities", "case_id")

    def __init__(self, events: Iterable[Event | str], case_id: str | None = None):
        normalized = tuple(
            event if isinstance(event, Event) else Event(event) for event in events
        )
        self._events: tuple[Event, ...] = normalized
        self._activities: tuple[str, ...] = tuple(event.activity for event in normalized)
        self.case_id = case_id

    @property
    def events(self) -> tuple[Event, ...]:
        """The events of this trace, in order."""
        return self._events

    @property
    def activities(self) -> tuple[str, ...]:
        """The activity sequence of this trace."""
        return self._activities

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self._activities == other._activities

    def __hash__(self) -> int:
        return hash(self._activities)

    def __repr__(self) -> str:
        label = f" case_id={self.case_id!r}" if self.case_id is not None else ""
        return f"Trace({list(self._activities)!r}{label})"

    def pairs(self) -> Iterator[tuple[str, str]]:
        """Yield every consecutive activity pair ``(a_i, a_{i+1})``."""
        for first, second in zip(self._activities, self._activities[1:]):
            yield first, second

    def distinct_activities(self) -> frozenset[str]:
        """The set of activities occurring in this trace."""
        return frozenset(self._activities)

    def drop_prefix(self, count: int) -> "Trace":
        """Return this trace without its first *count* events.

        Used to synthesize dislocated logs (Section 5.2, Figure 9 of the
        paper removes the first ``m`` events of each trace).  Dropping more
        events than the trace holds yields an empty trace, which callers are
        expected to filter out.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return Trace(self._events[count:], case_id=self.case_id)

    def drop_suffix(self, count: int) -> "Trace":
        """Return this trace without its last *count* events."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return Trace(self._events, case_id=self.case_id)
        return Trace(self._events[:-count], case_id=self.case_id)

    def relabel(self, mapping: Mapping[str, str]) -> "Trace":
        """Return a copy with each activity renamed through *mapping*.

        Activities absent from *mapping* are kept unchanged.
        """
        return Trace(
            (
                event.with_activity(mapping.get(event.activity, event.activity))
                for event in self._events
            ),
            case_id=self.case_id,
        )

    def replace_run(self, run: tuple[str, ...], replacement: str) -> "Trace":
        """Collapse every consecutive occurrence of *run* into *replacement*.

        This is the trace-level primitive behind composite-event merging:
        merging the composite ``{C, D}`` rewrites ``... C D ...`` into
        ``... C+D ...``.  Non-contiguous occurrences are left untouched.
        The new event keeps the first member's timestamp and attributes.
        :func:`collapse_run` applies the same rule to a bare activity tuple.
        """
        if not run:
            raise ValueError("run must be a non-empty activity sequence")
        events: list[Event] = []
        i = 0
        n = len(self._events)
        width = len(run)
        while i < n:
            if self._activities[i : i + width] == run:
                anchor = self._events[i]
                events.append(Event(replacement, anchor.timestamp, anchor.attributes))
                i += width
            else:
                events.append(self._events[i])
                i += 1
        return Trace(events, case_id=self.case_id)


def collapse_run(
    activities: tuple[str, ...], run: tuple[str, ...], replacement: str
) -> tuple[str, ...]:
    """*activities* with every contiguous occurrence of *run* collapsed
    into *replacement*: :meth:`Trace.replace_run` on the activity tuple
    alone, building no :class:`Event`."""
    first = run[0]
    width = len(run)
    result: list[str] = []
    i = 0
    n = len(activities)
    while i < n:
        activity = activities[i]
        if activity == first and activities[i : i + width] == run:
            result.append(replacement)
            i += width
        else:
            result.append(activity)
            i += 1
    return tuple(result)
