"""Trace-rewriting oracle for composite merges (Section 4).

``src/`` merges a composite run on a log's count table
(:class:`repro.graph.merge.CountTable`) and writes the merged log once,
from the table's final variants.  The functions here merge the
straightforward way the paper defines: rewrite every trace of the log
through :meth:`~repro.logs.events.Trace.replace_run`, one run after the
other, and recount whatever is needed from the rewritten log.  They are
the ground truth ``tests/graph/test_merge_delta.py``,
``tests/property/test_property_variants.py`` and the cold search of
``tests/composite_oracle.py`` hold the table route to.  Nothing in
``src/`` imports this module.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.exceptions import GraphError
from repro.graph.dependency import DependencyGraph
from repro.graph.merge import composite_name, expand_members
from repro.logs.log import EventLog


def merge_composite(log: EventLog, run: tuple[str, ...], replacement: str) -> EventLog:
    """*log* with every trace's consecutive occurrences of *run* collapsed
    into *replacement*, trace by trace."""
    return log.map_traces(lambda trace: trace.replace_run(run, replacement))


def merge_run_in_log(
    log: EventLog,
    run: Sequence[str],
    members: Mapping[str, frozenset[str]] | None = None,
) -> tuple[EventLog, dict[str, frozenset[str]]]:
    """Collapse contiguous occurrences of *run* in *log* into one event.

    Returns the rewritten log and the updated node -> original-activities
    mapping (all untouched activities map to themselves or their previous
    member sets).
    """
    run = tuple(run)
    if len(run) < 2:
        raise GraphError(f"a composite run needs at least two members, got {run!r}")
    if len(set(run)) != len(run):
        raise GraphError(f"composite run has repeated members: {run!r}")
    name = composite_name(run)
    merged = merge_composite(log, run, name)
    new_members: dict[str, frozenset[str]] = {}
    for activity in merged.activities():
        if activity == name:
            new_members[activity] = expand_members(run, members)
        elif members is not None and activity in members:
            new_members[activity] = members[activity]
        else:
            new_members[activity] = frozenset({activity})
    return merged, new_members


def merge_runs_in_log(
    log: EventLog, runs: Iterable[Sequence[str]]
) -> tuple[EventLog, dict[str, frozenset[str]]]:
    """Apply several non-overlapping composite merges in sequence."""
    members: dict[str, frozenset[str]] = {a: frozenset({a}) for a in log.activities()}
    current = log
    for run in runs:
        current, members = merge_run_in_log(current, run, members)
    return current, members


def merged_dependency_graph(
    log: EventLog,
    runs: Iterable[Sequence[str]],
    min_frequency: float = 0.0,
) -> DependencyGraph:
    """Dependency graph of *log* after merging the composite *runs*."""
    merged, members = merge_runs_in_log(log, runs)
    return DependencyGraph.from_log(merged, min_frequency=min_frequency, members=members)
