"""Composite-event merging: full log rewriting and delta count patching.

Section 4 treats a composite event — several singleton events that jointly
correspond to one event in the other log — "as one node in constructing
the dependency graph".  The only faithful way to obtain the merged graph's
frequencies is to rewrite the *log* (collapse each contiguous occurrence
of the member run into one event) and rebuild the graph from the rewritten
log; merging at the graph level cannot recover the per-trace co-occurrence
counts.  This module implements that rewriting plus composite bookkeeping.

The *delta* half of the module (:class:`TraceIndex`, :class:`LogCounts`,
:func:`merge_counts`) exploits that a merge of run ``r`` only rewrites the
traces that actually contain ``r`` contiguously, and that traces with the
same activity sequence (one *variant*) are rewritten alike.  Definition
1's frequencies are integer trace counts divided by the (merge-invariant)
trace count, so rewriting each affected variant's activity tuple once and
patching the integer counters by its multiplicity yields frequencies —
and therefore graphs, levels and similarities — **bit-identical** to the
full rebuild, at a cost proportional to the affected *distinct variants*
instead of the whole log.  The traces themselves are rewritten only when
a merge is accepted (:func:`apply_delta_to_log`).  The full rewrite is
kept both as the API for non-incremental callers and as the differential
ground truth (``tests/graph/test_merge_delta.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.exceptions import GraphError
from repro.graph.dependency import DependencyGraph
from repro.logs.events import collapse_run
from repro.logs.log import EventLog
from repro.logs.stats import LogStatistics


def composite_name(run: Sequence[str]) -> str:
    """The canonical node name of a composite event over *run*.

    The name preserves the member order (``⟨C+D⟩``) so merged logs stay
    human-readable; angle quotes keep it collision-free against ordinary
    activity names containing ``+``.
    """
    if not run:
        raise GraphError("a composite event needs at least one member")
    return "⟨" + "+".join(run) + "⟩"


def expand_members(
    run: Sequence[str], members: Mapping[str, frozenset[str]] | None = None
) -> frozenset[str]:
    """Original activities covered by a composite over *run*.

    When members of *run* are themselves composites, their member sets are
    unioned, so ground-truth evaluation always sees base activities.
    """
    covered: set[str] = set()
    for node in run:
        if members is not None and node in members:
            covered.update(members[node])
        else:
            covered.add(node)
    return frozenset(covered)


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
    merged = log.merge_composite(run, name)
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


# ----------------------------------------------------------------------
# Delta merging: patch integer counts instead of rewriting the log
# ----------------------------------------------------------------------
@dataclass(slots=True)
class LogCounts:
    """The integer numerators of Definition 1's frequencies.

    ``activity[a]`` is the number of traces containing ``a``;
    ``pair[(a, b)]`` the number of traces where ``a b`` occur consecutively
    at least once.  Dividing by ``trace_count`` reproduces
    :func:`repro.logs.stats.compute_statistics` exactly — same integers,
    same division, bit-identical floats — which is what lets delta-merged
    graphs match full rebuilds to the last bit.
    """

    trace_count: int
    activity: dict[str, int]
    pair: dict[tuple[str, str], int]

    @classmethod
    def from_log(cls, log: EventLog) -> "LogCounts":
        return cls(
            trace_count=len(log),
            activity=dict(log.activity_trace_counts()),
            pair=dict(log.pair_trace_counts()),
        )

    def copy(self) -> "LogCounts":
        return LogCounts(self.trace_count, dict(self.activity), dict(self.pair))

    def statistics(self) -> LogStatistics:
        """The normalized statistics these counts represent."""
        tc = self.trace_count
        return LogStatistics(
            trace_count=tc,
            activity_frequencies={a: count / tc for a, count in self.activity.items()},
            pair_frequencies={p: count / tc for p, count in self.pair.items()},
        )


class TraceIndex:
    """The log's trace variants, their distinct sets and an activity index.

    Built once per log from its variant table: each distinct activity
    tuple with its multiplicity, its distinct-activity and distinct-pair
    sets, and postings from each activity to the variant ids containing
    it.  The index answers "which variants can contain run ``r``
    contiguously?" (the intersection of the members' postings) and
    supplies each affected variant's old sets so :func:`merge_counts` can
    subtract/re-add only what changed, weighted by multiplicity.
    ``apply`` advances the index in place when a merge is accepted.
    """

    __slots__ = ("variants", "multiplicities", "activity_sets", "pair_sets", "postings")

    def __init__(self, log: EventLog):
        table = log.variant_counts()
        self.variants: list[tuple[str, ...]] = list(table)
        self.multiplicities: list[int] = list(table.values())
        self.activity_sets: list[frozenset[str]] = [
            frozenset(variant) for variant in self.variants
        ]
        self.pair_sets: list[frozenset[tuple[str, str]]] = [
            frozenset(zip(variant, variant[1:])) for variant in self.variants
        ]
        self.postings: dict[str, set[int]] = {}
        for i, activities in enumerate(self.activity_sets):
            for activity in activities:
                self.postings.setdefault(activity, set()).add(i)

    def candidate_variants(self, run: Sequence[str]) -> list[int]:
        """Ids of variants containing every member of *run* (sorted)."""
        postings = [self.postings.get(member) for member in run]
        if any(p is None for p in postings):
            return []
        smallest = min(postings, key=len)
        common = set(smallest)
        for p in postings:
            if p is not smallest:
                common &= p
                if not common:
                    return []
        return sorted(common)

    def apply(self, delta: "MergeDelta") -> None:
        """Advance the index past an accepted merge (in place)."""
        for i, _, new_variant in delta.affected:
            old_activities = self.activity_sets[i]
            new_activities = frozenset(new_variant)
            for activity in old_activities - new_activities:
                posting = self.postings[activity]
                posting.discard(i)
                if not posting:
                    del self.postings[activity]
            for activity in new_activities - old_activities:
                self.postings.setdefault(activity, set()).add(i)
            self.variants[i] = new_variant
            self.activity_sets[i] = new_activities
            self.pair_sets[i] = frozenset(zip(new_variant, new_variant[1:]))


@dataclass(frozen=True, slots=True)
class MergeDelta:
    """Everything one candidate merge changes, in patchable form.

    ``counts`` is the fully patched :class:`LogCounts` of the merged log;
    ``affected`` the rewritten variants (variant id, old activity tuple,
    new activity tuple);
    ``activity_changes`` / ``pair_changes`` map each touched counter key to
    its ``(old, new)`` integer counts — the raw material for computing
    which nodes' in/out edge sets changed (and hence where Proposition-2
    levels must be recomputed).
    """

    run: tuple[str, ...]
    name: str
    counts: LogCounts
    affected: tuple[tuple[int, tuple[str, ...], tuple[str, ...]], ...]
    activity_changes: dict[str, tuple[int, int]]
    pair_changes: dict[tuple[str, str], tuple[int, int]]

    def changed_nodes(self, min_frequency: float = 0.0) -> tuple[set[str], set[str]]:
        """``(in_changed, out_changed)``: nodes whose real edge sets moved.

        A node's *in*-edge set changes when it gains or loses a
        surviving-the-``min_frequency``-filter incoming edge; likewise
        *out* for outgoing.  Run members and the composite name are always
        included (nodes removed/added outright).  These are exactly the
        ``changed`` sets :func:`repro.graph.levels.patched_longest_distances`
        needs for the forward and reversed merged graphs respectively.
        """
        tc = self.counts.trace_count
        in_changed: set[str] = set(self.run)
        out_changed: set[str] = set(self.run)
        in_changed.add(self.name)
        out_changed.add(self.name)
        for (source, target), (old, new) in self.pair_changes.items():
            present_old = old > 0 and old / tc >= min_frequency
            present_new = new > 0 and new / tc >= min_frequency
            if present_old != present_new:
                in_changed.add(target)
                out_changed.add(source)
        return in_changed, out_changed


def merge_counts(counts: LogCounts, index: TraceIndex, run: Sequence[str]) -> MergeDelta:
    """Patch *counts* for merging *run*, touching only affected variants.

    Equivalent to rewriting the log with :func:`merge_run_in_log` and
    recounting from scratch, but proportional to the distinct variants
    that actually contain the contiguous run: each is rewritten once, as a
    tuple, and moves the counters by its multiplicity.  *counts* is not
    mutated; the returned delta carries a patched copy.
    """
    run = tuple(run)
    if len(run) < 2:
        raise GraphError(f"a composite run needs at least two members, got {run!r}")
    if len(set(run)) != len(run):
        raise GraphError(f"composite run has repeated members: {run!r}")
    name = composite_name(run)

    activity = dict(counts.activity)
    pair = dict(counts.pair)
    activity_changes: dict[str, tuple[int, int]] = {}
    pair_changes: dict[tuple[str, str], tuple[int, int]] = {}
    affected: list[tuple[int, tuple[str, ...], tuple[str, ...]]] = []

    for i in index.candidate_variants(run):
        variant = index.variants[i]
        new_variant = collapse_run(variant, run, name)
        if new_variant == variant:
            continue  # members present but never contiguous in this variant
        affected.append((i, variant, new_variant))
        multiplicity = index.multiplicities[i]
        old_activities = index.activity_sets[i]
        new_activities = frozenset(new_variant)
        for a in old_activities - new_activities:
            if a not in activity_changes:
                activity_changes[a] = (activity.get(a, 0), 0)
            remaining = activity[a] - multiplicity
            if remaining:
                activity[a] = remaining
            else:
                del activity[a]
        for a in new_activities - old_activities:
            if a not in activity_changes:
                activity_changes[a] = (activity.get(a, 0), 0)
            activity[a] = activity.get(a, 0) + multiplicity
        old_pairs = index.pair_sets[i]
        new_pairs = frozenset(zip(new_variant, new_variant[1:]))
        for p in old_pairs - new_pairs:
            if p not in pair_changes:
                pair_changes[p] = (pair.get(p, 0), 0)
            remaining = pair[p] - multiplicity
            if remaining:
                pair[p] = remaining
            else:
                del pair[p]
        for p in new_pairs - old_pairs:
            if p not in pair_changes:
                pair_changes[p] = (pair.get(p, 0), 0)
            pair[p] = pair.get(p, 0) + multiplicity

    activity_changes = {
        a: (old, activity.get(a, 0)) for a, (old, _) in activity_changes.items()
    }
    pair_changes = {p: (old, pair.get(p, 0)) for p, (old, _) in pair_changes.items()}
    return MergeDelta(
        run=run,
        name=name,
        counts=LogCounts(counts.trace_count, activity, pair),
        affected=tuple(affected),
        activity_changes=activity_changes,
        pair_changes=pair_changes,
    )


def merged_member_map(
    activities: Iterable[str],
    run: Sequence[str],
    members: Mapping[str, frozenset[str]] | None,
) -> dict[str, frozenset[str]]:
    """The node → original-activities map after merging *run*.

    Mirrors the bookkeeping of :func:`merge_run_in_log` (same rule, applied
    to the merged activity set) so the delta path produces identical member
    maps to the rewrite path.
    """
    name = composite_name(run)
    new_members: dict[str, frozenset[str]] = {}
    for activity in activities:
        if activity == name:
            new_members[activity] = expand_members(run, members)
        elif members is not None and activity in members:
            new_members[activity] = members[activity]
        else:
            new_members[activity] = frozenset({activity})
    return new_members


def apply_delta_to_log(log: EventLog, delta: MergeDelta) -> EventLog:
    """The merged log: only the traces of affected variants are rewritten.

    Equal position for position — timestamps, attributes and case ids
    included — to ``merge_run_in_log(log, delta.run)[0]``, with the same
    variant table in the same order; the table is patched from the
    delta's variant rewrites rather than recounted trace by trace.
    """
    return log.rewrite_variants(
        {old: new for _, old, new in delta.affected},
        lambda trace: trace.replace_run(delta.run, delta.name),
    )


def merged_graph_from_delta(
    parent_graph: DependencyGraph,
    delta: MergeDelta,
    min_frequency: float,
    members: Mapping[str, frozenset[str]],
    patch_reversed: bool = True,
) -> DependencyGraph:
    """Build the merged graph from a delta, with patched levels pre-seeded.

    The graph is constructed from the patched statistics (bit-identical to
    the full rebuild) and its Proposition-2 levels — plus those of its
    reversed graph when *patch_reversed* — are computed with
    :func:`repro.graph.levels.patched_longest_distances` from the parent's
    cached levels, so the per-candidate cost is proportional to the dirty
    region rather than the whole graph.
    """
    from repro.graph.levels import patched_longest_distances

    graph = DependencyGraph.from_statistics(
        delta.counts.statistics(),
        name=parent_graph.name,
        min_frequency=min_frequency,
        members=members,
    )
    in_changed, out_changed = delta.changed_nodes(min_frequency)
    graph._seed_levels(patched_longest_distances(graph, parent_graph.levels(), in_changed))
    if patch_reversed:
        reversed_graph = graph.reversed()
        reversed_graph._seed_levels(
            patched_longest_distances(
                reversed_graph, parent_graph.reversed().levels(), out_changed
            )
        )
    return graph
