"""Trace- and event-level filtering utilities for event logs.

These helpers are the log-surgery layer the evaluation section relies on:
dislocation is injected by dropping trace prefixes/suffixes (Figure 9),
and infrequent-behaviour filtering keeps synthetic corpora realistic.
"""

from __future__ import annotations

from repro.logs.events import Trace
from repro.logs.log import EventLog


def drop_trace_prefixes(log: EventLog, count: int, name: str | None = None) -> EventLog:
    """Remove the first *count* events of every trace.

    Traces that become empty are dropped.  This is exactly the dislocation
    synthesis of the paper's Figure 9: "we synthetically remove the first m
    events of each trace in one event log".
    """
    return log.map_traces(lambda trace: trace.drop_prefix(count), name=name)


def drop_trace_suffixes(log: EventLog, count: int, name: str | None = None) -> EventLog:
    """Remove the last *count* events of every trace."""
    return log.map_traces(lambda trace: trace.drop_suffix(count), name=name)


def remove_activities(log: EventLog, activities: frozenset[str] | set[str],
                      name: str | None = None) -> EventLog:
    """Delete every occurrence of the given *activities* from all traces."""
    removed = frozenset(activities)

    def strip(trace: Trace) -> Trace:
        return trace.take(
            index
            for index, activity in enumerate(trace.activities)
            if activity not in removed
        )

    return log.map_traces(strip, name=name)


def keep_frequent_variants(log: EventLog, min_count: int, name: str | None = None) -> EventLog:
    """Keep only traces whose variant occurs at least *min_count* times."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts = log.variant_counts()
    return log.filter_traces(
        lambda trace: counts[trace.activities] >= min_count, name=name
    )


def truncate_traces(log: EventLog, max_length: int, name: str | None = None) -> EventLog:
    """Cut every trace down to its first *max_length* events."""
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")
    return log.map_traces(
        lambda trace: trace.drop_suffix(max(len(trace) - max_length, 0)), name=name
    )


def sample_traces(log: EventLog, indices: list[int], name: str | None = None) -> EventLog:
    """Build a sub-log from the traces at the given *indices* (with repeats)."""
    traces = log.traces
    result = EventLog(name=name if name is not None else log.name)
    for index in indices:
        result.append(traces[index])
    return result
