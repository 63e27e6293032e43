"""Core event-data value types: :class:`Event` and :class:`Trace`.

An *event* is one recorded execution step of a business process; its
``activity`` is the label under which the step was logged (the paper calls
this the *event name*, which may be opaque).  A *trace* is the finite
sequence of events recorded for one case (one order, one ticket, ...).

A :class:`Trace` stores its events as columns: a tuple of activities (the
word over ``V*`` that every count, graph and fixpoint reads), a tuple of
timestamps and, only when some event carries any, a tuple of per-event
attribute maps.  :class:`Event` values are built from those columns when
a caller asks for them (:attr:`Trace.events`, iteration, indexing); the
readers, writers and trace transforms work on the columns and build none.

These types are deliberately small and immutable: the heavy lifting lives
in :class:`repro.logs.log.EventLog` and the dependency-graph layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator, Mapping, Sequence


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


def _check_activities(activities: tuple[str, ...]) -> None:
    """The checks :class:`Event` makes, over the distinct labels and
    their distinct types."""
    labels = set(activities)
    for kind in set(map(type, labels)):
        if not issubclass(kind, str):
            raise TypeError(f"activity must be a string, got {kind.__name__}")
    if "" in labels:
        raise ValueError("activity must be a non-empty string")


class Trace:
    """An immutable, ordered sequence of events, stored as columns.

    A trace records the steps taken for one case.  ``Trace(events)``
    accepts :class:`Event` objects or bare activity strings and splits
    them into columns; :meth:`from_columns` takes the columns directly.
    Traces compare equal when their activity sequences are equal —
    timestamps and attributes are treated as annotations, matching the
    paper's trace model in which a trace is an element of ``V*``.
    """

    __slots__ = ("_activities", "_timestamps", "_attributes", "case_id")

    def __init__(self, events: Iterable[Event | str], case_id: str | None = None):
        activities: list[str] = []
        timestamps: list[float | None] = []
        attributes: list[Mapping[str, str]] = []
        for event in events:
            if isinstance(event, Event):
                activities.append(event.activity)
                timestamps.append(event.timestamp)
                attributes.append(event.attributes)
            else:
                activities.append(event)
                timestamps.append(None)
                attributes.append({})
        self._install(tuple(activities), tuple(timestamps), tuple(attributes), case_id)

    @classmethod
    def from_columns(
        cls,
        activities: Sequence[str],
        timestamps: Sequence[float | None] | None = None,
        attributes: Sequence[Mapping[str, str]] | None = None,
        case_id: str | None = None,
    ) -> "Trace":
        """The trace whose *i*-th event is ``Event(activities[i],
        timestamps[i], attributes[i])``.

        Missing *timestamps* mean no event has one; missing *attributes*
        mean no event carries any.  Activities are checked as
        :class:`Event` checks them.
        """
        trace = cls.__new__(cls)
        trace._install(tuple(activities), timestamps, attributes, case_id)
        return trace

    def _install(
        self,
        activities: tuple[str, ...],
        timestamps: Sequence[float | None] | None,
        attributes: Sequence[Mapping[str, str]] | None,
        case_id: str | None,
    ) -> None:
        _check_activities(activities)
        count = len(activities)
        timestamps = (None,) * count if timestamps is None else tuple(timestamps)
        attributes = None if attributes is None else tuple(attributes)
        if len(timestamps) != count or (attributes is not None and len(attributes) != count):
            raise ValueError("trace columns must have one entry per event")
        self._activities = activities
        self._timestamps: tuple[float | None, ...] = timestamps
        self._attributes: tuple[Mapping[str, str], ...] | None = (
            attributes if attributes and any(attributes) else None
        )
        self.case_id = case_id

    @property
    def activities(self) -> tuple[str, ...]:
        """The activity sequence of this trace."""
        return self._activities

    @property
    def timestamps(self) -> tuple[float | None, ...]:
        """The timestamp of each event (``None`` where it has none)."""
        return self._timestamps

    @property
    def attributes(self) -> tuple[Mapping[str, str], ...] | None:
        """The attribute map of each event, or ``None`` when no event of
        this trace carries any."""
        return self._attributes

    @property
    def events(self) -> tuple[Event, ...]:
        """The events of this trace, in order, built from the columns."""
        return tuple(self)

    def _event(self, index: int) -> Event:
        attributes = {} if self._attributes is None else self._attributes[index]
        return Event(self._activities[index], self._timestamps[index], attributes)

    def __len__(self) -> int:
        return len(self._activities)

    def __iter__(self) -> Iterator[Event]:
        return map(self._event, range(len(self._activities)))

    def __getitem__(self, index: int | slice) -> Event | tuple[Event, ...]:
        if isinstance(index, slice):
            return tuple(map(self._event, range(len(self._activities))[index]))
        return self._event(range(len(self._activities))[index])

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

    def take(self, positions: Iterable[int]) -> "Trace":
        """The trace of the events at *positions*, in that order (repeats
        allowed): the column form of ``Trace([trace[i] for i in positions])``."""
        positions = tuple(positions)
        attributes = self._attributes
        return Trace.from_columns(
            tuple(map(self._activities.__getitem__, positions)),
            tuple(map(self._timestamps.__getitem__, positions)),
            None if attributes is None else tuple(map(attributes.__getitem__, positions)),
            case_id=self.case_id,
        )

    def _slice(self, start: int, stop: int | None) -> "Trace":
        attributes = self._attributes
        return Trace.from_columns(
            self._activities[start:stop],
            self._timestamps[start:stop],
            None if attributes is None else attributes[start:stop],
            case_id=self.case_id,
        )

    def drop_prefix(self, count: int) -> "Trace":
        """Return this trace without its first *count* events.

        Used to synthesize dislocated logs (Section 5.2, Figure 9 of the
        paper removes the first ``m`` events of each trace).  Dropping more
        events than the trace holds yields an empty trace, which callers are
        expected to filter out.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return self._slice(count, None)

    def drop_suffix(self, count: int) -> "Trace":
        """Return this trace without its last *count* events."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return self._slice(0, -count if count else None)

    def relabel(self, mapping: Mapping[str, str]) -> "Trace":
        """Return a copy with each activity renamed through *mapping*.

        Activities absent from *mapping* are kept unchanged.
        """
        return Trace.from_columns(
            tuple(mapping.get(activity, activity) for activity in self._activities),
            self._timestamps,
            self._attributes,
            case_id=self.case_id,
        )

    def replace_run(self, run: tuple[str, ...], replacement: str) -> "Trace":
        """Collapse every consecutive occurrence of *run* into *replacement*.

        This is the trace-level primitive behind composite-event merging:
        merging the composite ``{C, D}`` rewrites ``... C D ...`` into
        ``... C+D ...``.  Non-contiguous occurrences are left untouched.
        The activities are those :func:`collapse_run` gives; the new event
        keeps the first member's timestamp and attributes.
        """
        if not run:
            raise ValueError("run must be a non-empty activity sequence")
        starts = _run_starts(self._activities, run)
        if not starts:
            return self._slice(0, None)
        width = len(run)
        attributes = self._attributes
        return Trace.from_columns(
            _splice(self._activities, starts, width, repeat(replacement)),
            _splice(self._timestamps, starts, width, map(self._timestamps.__getitem__, starts)),
            None
            if attributes is None
            else _splice(attributes, starts, width, map(attributes.__getitem__, starts)),
            case_id=self.case_id,
        )


def _run_starts(activities: tuple[str, ...], run: tuple[str, ...]) -> list[int]:
    """Where each collapsed occurrence of *run* begins: scanning left to
    right, an occurrence is taken whole and the scan resumes after it."""
    first = run[0]
    width = len(run)
    starts: list[int] = []
    index = 0
    try:
        while True:
            index = activities.index(first, index)
            if activities[index : index + width] == run:
                starts.append(index)
                index += width
            else:
                index += 1
    except ValueError:  # no further occurrence of the run's first label
        return starts


def _splice(column: tuple, starts: list[int], width: int, fills: Iterable) -> tuple:
    """*column* with the *width* entries at each start replaced by one fill.

    The result is written into a list of its final length: a tuple grown
    piece by piece is reallocated as it grows, which fragmented the heap
    enough to raise the composite search's peak RSS run after run.
    """
    result: list = [None] * (len(column) - len(starts) * (width - 1))
    previous = at = 0
    for start, fill in zip(starts, fills):
        result[at : at + start - previous] = column[previous:start]
        at += start - previous
        result[at] = fill
        at += 1
        previous = start + width
    result[at:] = column[previous:]
    return tuple(result)


def collapse_run(
    activities: tuple[str, ...], run: tuple[str, ...], replacement: str
) -> tuple[str, ...]:
    """*activities* with every contiguous occurrence of *run* collapsed
    into *replacement*: the activity column of :meth:`Trace.replace_run`,
    computed on the bare tuple."""
    starts = _run_starts(activities, run)
    if not starts:
        return activities
    return _splice(activities, starts, len(run), repeat(replacement))
