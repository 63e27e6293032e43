"""Online log statistics: dependency-graph inputs from a trace stream.

The paper's motivating systems (OA/ERP) log continuously; a production
integration recomputes matchings as data arrives.  This accumulator
ingests traces one at a time in O(trace length) and can emit a
:class:`~repro.logs.stats.LogStatistics` snapshot — identical to the
batch computation — at any point, so dependency graphs (and matchings)
can be refreshed incrementally without retaining the raw log.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from repro.exceptions import EventLogError
from repro.logs.events import Trace
from repro.logs.log import RESERVED_ACTIVITY, EventLog
from repro.logs.stats import LogStatistics


class OnlineStatistics:
    """Streaming accumulator of Definition 1's normalized frequencies."""

    __slots__ = ("_trace_count", "_activity_counts", "_pair_counts")

    def __init__(self):
        self._trace_count = 0
        self._activity_counts: Counter[str] = Counter()
        self._pair_counts: Counter[tuple[str, str]] = Counter()

    @property
    def trace_count(self) -> int:
        return self._trace_count

    @property
    def activity_counts(self) -> Counter[str]:
        """Raw per-activity trace counts (treat as read-only)."""
        return self._activity_counts

    @property
    def pair_counts(self) -> Counter[tuple[str, str]]:
        """Raw per-pair trace counts (treat as read-only)."""
        return self._pair_counts

    def add_sequence(self, activities: Sequence[str]) -> None:
        """Ingest one completed trace given only its activity sequence.

        The counter updates are exactly those of :meth:`add_trace`, which
        passes a trace's activity column here; the streamed ingestion
        route calls it directly on the activity tuples of its trace
        stream, and the differential suites hold the two entry points to
        identical statistics.
        """
        sequence = tuple(activities)
        if not sequence:
            raise EventLogError("empty traces carry no information")
        distinct = frozenset(sequence)
        if RESERVED_ACTIVITY in distinct:
            raise EventLogError(
                f"activity name {RESERVED_ACTIVITY!r} is reserved"
            )
        self._trace_count += 1
        self._activity_counts.update(distinct)
        self._pair_counts.update(set(zip(sequence, sequence[1:])))

    def add_trace(self, trace: Trace | Iterable[str]) -> None:
        """Ingest one completed trace."""
        if isinstance(trace, Trace):
            self.add_sequence(trace.activities)
        else:
            self.add_sequence(tuple(trace))

    def add_log(self, log: EventLog) -> None:
        """Ingest every trace of *log*."""
        for trace in log:
            self.add_trace(trace)

    def seed_counts(
        self,
        trace_count: int,
        activity_counts: Counter[str] | dict[str, int],
        pair_counts: Counter[tuple[str, str]] | dict[tuple[str, str], int],
    ) -> None:
        """Install previously computed raw counts (store restore path).

        The accumulator must be empty; the caller vouches that the counts
        came from a real trace population (the persistent
        :class:`~repro.store.LogStore` digest-verifies them on load).
        """
        if self._trace_count:
            raise EventLogError("cannot seed a non-empty accumulator")
        if trace_count < 0:
            raise EventLogError(f"trace_count must be >= 0, got {trace_count}")
        self._trace_count = trace_count
        self._activity_counts = Counter(activity_counts)
        self._pair_counts = Counter(
            {tuple(pair): count for pair, count in dict(pair_counts).items()}
        )

    def merge_into(self, other: "OnlineStatistics") -> None:
        """Fold this accumulator's counts into *other*, in place.

        ``other`` absorbs ``self`` without allocating fresh counters
        (the append path folds a parsed tail into the stored prefix
        counts this way); ``self`` is left untouched.  Counts are integer
        sums over traces, so folding any partition of a log's traces
        reproduces the counts of the whole log.
        """
        other._trace_count += self._trace_count
        other._activity_counts.update(self._activity_counts)
        other._pair_counts.update(self._pair_counts)

    def snapshot(self) -> LogStatistics:
        """The statistics of everything ingested so far."""
        if self._trace_count == 0:
            raise EventLogError("no traces ingested yet")
        return LogStatistics(
            trace_count=self._trace_count,
            activity_frequencies={
                activity: count / self._trace_count
                for activity, count in self._activity_counts.items()
            },
            pair_frequencies={
                pair: count / self._trace_count
                for pair, count in self._pair_counts.items()
            },
        )

    def __repr__(self) -> str:
        return (
            f"OnlineStatistics(traces={self._trace_count}, "
            f"activities={len(self._activity_counts)})"
        )
