"""Per-trace counting oracle for the variant-table counts.

``src/`` counts every in-memory log through its variant table: each
distinct activity sequence once, weighted by its multiplicity.  The
functions here count the straightforward way — one trace at a time,
adding 1 per trace — and are the ground truth the differential suites
(``tests/property/test_property_variants.py`` and friends) hold the
production counts to.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Sequence

from repro.graph.merge import LogCounts
from repro.logs.events import Event, Trace
from repro.logs.log import EventLog
from repro.logs.stats import LogStatistics


def activity_trace_counts(log: EventLog) -> Counter[str]:
    """Traces containing each activity (Definition 1's ``f(v)`` numerator)."""
    counts: Counter[str] = Counter()
    for trace in log:
        counts.update(trace.distinct_activities())
    return counts


def pair_trace_counts(log: EventLog) -> Counter[tuple[str, str]]:
    """Traces containing each consecutive pair at least once."""
    counts: Counter[tuple[str, str]] = Counter()
    for trace in log:
        counts.update(set(trace.pairs()))
    return counts


def activity_occurrence_counts(log: EventLog) -> Counter[str]:
    """Every occurrence of each activity."""
    counts: Counter[str] = Counter()
    for trace in log:
        counts.update(trace.activities)
    return counts


def directly_follows_counts(log: EventLog) -> Counter[tuple[str, str]]:
    """Every consecutive occurrence of each ordered pair."""
    counts: Counter[tuple[str, str]] = Counter()
    for trace in log:
        counts.update(trace.pairs())
    return counts


def log_counts(log: EventLog) -> LogCounts:
    """:class:`LogCounts` from the per-trace counters."""
    return LogCounts(
        trace_count=len(log),
        activity=dict(activity_trace_counts(log)),
        pair=dict(pair_trace_counts(log)),
    )


def statistics(log: EventLog) -> LogStatistics:
    """Definition 1's normalized frequencies from the per-trace counters."""
    return log_counts(log).statistics()


def count_changes(before: dict, after: dict) -> dict:
    """``key -> (old, new)`` for every counter key whose count moved."""
    return {
        key: (before.get(key, 0), after.get(key, 0))
        for key in before.keys() | after.keys()
        if before.get(key, 0) != after.get(key, 0)
    }


def changed_nodes(
    before: LogCounts,
    after: LogCounts,
    run: Sequence[str],
    name: str,
    min_frequency: float,
) -> tuple[set[str], set[str]]:
    """``(in_changed, out_changed)`` from the real edge sets of both logs."""

    def edges(counts: LogCounts) -> set[tuple[str, str]]:
        tc = counts.trace_count
        return {pair for pair, count in counts.pair.items() if count / tc >= min_frequency}

    moved = edges(before) ^ edges(after)
    in_changed = set(run) | {name} | {target for _, target in moved}
    out_changed = set(run) | {name} | {source for source, _ in moved}
    return in_changed, out_changed


def duplicated_log(seed: int, alphabet: str = "abcdef") -> EventLog:
    """A log of few variants and many traces, as real logs are.

    Draws 1–6 base activity sequences, copies each 1–5 times
    and shuffles the copies.  Every trace gets its own case id and
    per-event timestamps and attributes, so rewrites that must keep them
    can be checked position for position.
    """
    rng = random.Random(seed)
    bases = [
        [rng.choice(alphabet) for _ in range(rng.randint(1, 6))]
        for _ in range(rng.randint(1, 6))
    ]
    sequences = [
        base for base in bases for _ in range(rng.randint(1, 5))
    ]
    rng.shuffle(sequences)
    traces = [
        Trace(
            (
                Event(activity, float(10 * case + step), {"resource": f"r{step % 3}"})
                for step, activity in enumerate(sequence)
            ),
            case_id=f"case-{case}",
        )
        for case, sequence in enumerate(sequences)
    ]
    return EventLog(traces, name=f"dup-{seed}")
