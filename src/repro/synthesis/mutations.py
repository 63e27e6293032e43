"""Log mutation operators: the heterogeneity injectors.

Each operator reproduces one of the paper's three challenges on synthetic
data:

* :func:`opacify` — opaque names (Challenge 1);
* :func:`dislocate` — dislocated traces (Challenge 2, the Figure 9 setup:
  "synthetically remove the first m events of each trace in one log");
* :func:`split_activities` — composite events (Challenge 3: one event in
  a log corresponds to a run of sub-steps in the other).
"""

from __future__ import annotations

import random
from typing import Literal, Sequence

from repro.exceptions import SynthesisError
from repro.logs.events import Event, Trace
from repro.logs.filtering import drop_trace_prefixes, drop_trace_suffixes
from repro.logs.log import EventLog
from repro.synthesis.names import garble_mapping


def opacify(
    log: EventLog, rng: random.Random, fraction: float = 1.0
) -> tuple[EventLog, dict[str, str]]:
    """Garble a *fraction* of activity names; returns (log, mapping)."""
    mapping = garble_mapping(sorted(log.activities()), rng, fraction)
    return log.relabel(mapping), mapping


DislocationSite = Literal["begin", "end", "both"]


def dislocate(log: EventLog, count: int, where: DislocationSite = "begin") -> EventLog:
    """Remove *count* events from the chosen end(s) of every trace."""
    if count < 0:
        raise SynthesisError(f"count must be non-negative, got {count}")
    result = log
    if where in ("begin", "both"):
        result = drop_trace_prefixes(result, count)
    if where in ("end", "both"):
        result = drop_trace_suffixes(result, count)
    if len(result) == 0:
        raise SynthesisError(
            f"dislocating {count} events at {where!r} removed every trace"
        )
    return result


def split_activities(
    log: EventLog,
    targets: Sequence[str],
    parts: int = 2,
    separator: str = " / step ",
) -> tuple[EventLog, dict[str, tuple[str, ...]]]:
    """Split each target activity into a run of *parts* sub-steps.

    Every occurrence of a target ``a`` becomes the consecutive run
    ``a / step 1, ..., a / step k``, which is exactly the situation where
    the *other* log's single event is a composite of this log's events.
    Returns the rewritten log and ``{activity: (part names...)}``.
    """
    if parts < 2:
        raise SynthesisError(f"parts must be >= 2, got {parts}")
    activities = log.activities()
    unknown = set(targets) - set(activities)
    if unknown:
        raise SynthesisError(f"activities not in log: {sorted(unknown)}")
    part_names = {
        activity: tuple(f"{activity}{separator}{i + 1}" for i in range(parts))
        for activity in targets
    }

    def rewrite(trace: Trace) -> Trace:
        events: list[Event] = []
        for event in trace:
            pieces = part_names.get(event.activity)
            if pieces is None:
                events.append(event)
            else:
                events.extend(
                    Event(piece, event.timestamp, event.attributes) for piece in pieces
                )
        return Trace(events, case_id=trace.case_id)

    return log.map_traces(rewrite), part_names


def drop_random_events(
    log: EventLog, rng: random.Random, probability: float
) -> EventLog:
    """Delete each event independently with *probability* (logging gaps).

    Real logs miss events — crashed handlers, manual steps never entered.
    Traces that lose all events are dropped.
    """
    if not 0.0 <= probability < 1.0:
        raise SynthesisError(f"probability must be in [0, 1), got {probability}")

    def thin(trace: Trace) -> Trace:
        return trace.take(
            index for index in range(len(trace)) if rng.random() >= probability
        )

    return log.map_traces(thin)


def duplicate_random_events(
    log: EventLog, rng: random.Random, probability: float
) -> EventLog:
    """Duplicate each event independently with *probability* (retries,
    double-clicks, at-least-once delivery)."""
    if not 0.0 <= probability < 1.0:
        raise SynthesisError(f"probability must be in [0, 1), got {probability}")

    def thicken(trace: Trace) -> Trace:
        positions: list[int] = []
        for index in range(len(trace)):
            positions.append(index)
            if rng.random() < probability:
                positions.append(index)
        return trace.take(positions)

    return log.map_traces(thicken)


def swap_adjacent_events(
    log: EventLog, rng: random.Random, probability: float
) -> EventLog:
    """Swap adjacent event pairs with *probability* (clock skew between
    systems reorders near-simultaneous events)."""
    if not 0.0 <= probability < 1.0:
        raise SynthesisError(f"probability must be in [0, 1), got {probability}")

    def jitter(trace: Trace) -> Trace:
        positions = list(range(len(trace)))
        index = 0
        while index < len(positions) - 1:
            if rng.random() < probability:
                positions[index], positions[index + 1] = positions[index + 1], positions[index]
                index += 2  # do not cascade a swapped event further
            else:
                index += 1
        return trace.take(positions)

    return log.map_traces(jitter)


def shuffle_case_order(log: EventLog, rng: random.Random) -> EventLog:
    """Reorder traces randomly (frequencies are order-invariant; used to
    check that matchers do not accidentally depend on trace order)."""
    traces = list(log.traces)
    rng.shuffle(traces)
    result = EventLog(name=log.name)
    for trace in traces:
        result.append(trace)
    return result
