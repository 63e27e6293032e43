"""Statistics over event logs.

The dependency graph (Definition 1) is a pure function of two statistics:
node frequencies (fraction of traces containing each activity) and edge
frequencies (fraction of traces where an ordered activity pair occurs
consecutively).  This module computes those plus a handful of descriptive
statistics used by the synthesis layer and the experiment reports.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.exceptions import EventLogError
from repro.logs.log import EventLog


@dataclass(frozen=True, slots=True)
class LogStatistics:
    """Normalized frequency statistics of an event log.

    Attributes
    ----------
    trace_count:
        Number of traces in the log.
    activity_frequencies:
        ``f(v)``: fraction of traces containing each activity; in (0, 1].
    pair_frequencies:
        ``f(v1, v2)``: fraction of traces where ``v1 v2`` occur
        consecutively at least once; in (0, 1].
    """

    trace_count: int
    activity_frequencies: dict[str, float]
    pair_frequencies: dict[tuple[str, str], float]

    @property
    def activities(self) -> frozenset[str]:
        return frozenset(self.activity_frequencies)


def compute_statistics(log: EventLog) -> LogStatistics:
    """Compute the normalized frequencies of Definition 1 for *log*."""
    trace_count = len(log)
    if trace_count == 0:
        raise EventLogError("cannot compute statistics of an empty event log")
    activity_frequencies = {
        activity: count / trace_count
        for activity, count in log.activity_trace_counts().items()
    }
    pair_frequencies = {
        pair: count / trace_count for pair, count in log.pair_trace_counts().items()
    }
    return LogStatistics(trace_count, activity_frequencies, pair_frequencies)


@dataclass(frozen=True, slots=True)
class LogSummary:
    """Descriptive statistics for reports (not used by matching)."""

    trace_count: int
    event_count: int
    activity_count: int
    variant_count: int
    min_trace_length: int
    max_trace_length: int
    mean_trace_length: float


def summarize(log: EventLog) -> LogSummary:
    """Compute descriptive statistics of *log*."""
    if len(log) == 0:
        raise EventLogError("cannot summarize an empty event log")
    variants = log.variant_counts()
    lengths = [len(variant) for variant in variants]
    event_count = sum(len(variant) * count for variant, count in variants.items())
    return LogSummary(
        trace_count=len(log),
        event_count=event_count,
        activity_count=len(log.activities()),
        variant_count=len(variants),
        min_trace_length=min(lengths),
        max_trace_length=max(lengths),
        mean_trace_length=event_count / len(log),
    )


def start_activity_counts(log: EventLog) -> Counter[str]:
    """How many traces start with each activity."""
    return log.count_over_variants(lambda variant: variant[:1])


def end_activity_counts(log: EventLog) -> Counter[str]:
    """How many traces end with each activity."""
    return log.count_over_variants(lambda variant: variant[-1:])


def directly_follows_counts(log: EventLog) -> Counter[tuple[str, str]]:
    """Total number of consecutive occurrences of each ordered pair.

    Unlike :meth:`EventLog.pair_trace_counts`, this counts every occurrence
    (a pair appearing twice in one trace counts twice).  Definition 1 uses
    the per-trace version; this one feeds the SEQ-pattern composite
    candidate discovery (Section 5.1 of the paper), which needs occurrence
    counts to decide whether two activities *always* appear together.
    """
    return log.count_over_variants(lambda variant: list(zip(variant, variant[1:])))


def activity_occurrence_counts(log: EventLog) -> Counter[str]:
    """Total number of occurrences of each activity across all traces."""
    return log.count_over_variants(lambda variant: variant)
