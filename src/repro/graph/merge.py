"""Composite-event merging on one count table per log.

Section 4 treats a composite event — several singleton events that jointly
correspond to one event in the other log — "as one node in constructing
the dependency graph".  The merged graph is defined through the rewritten
*log*: every contiguous occurrence of the member run collapses into one
event, and the graph's frequencies are recounted from the result; merging
at the graph level cannot recover the per-trace co-occurrence counts.

This module never rewrites traces to count them.  A :class:`CountTable`
holds a log's trace variants (each distinct activity sequence with its
multiplicity) and the four integer counters everything downstream reads:
Definition 1's activity and pair *trace* counts, and the activity and
directly-follows *occurrence* counts of candidate discovery.  A merge of
run ``r`` only rewrites the variants that contain ``r`` contiguously, and
:func:`merge_counts` collapses each of them once, as a tuple, by the one
:func:`~repro.logs.events.collapse_run` rule.  Definition 1's frequencies
are integer trace counts divided by the (merge-invariant) trace count, so
patching the integers by each affected variant's multiplicity yields
frequencies — and therefore graphs, levels and similarities —
**bit-identical** to rewriting the log and recounting it, at a cost
proportional to the affected *distinct variants*.

Variant ids are stable under merges, so the table always knows which
original variant became which.  The merged log itself is built once, when
a caller asks for it (:func:`rewrite_log`): one pass over the traces that
applies the accepted runs in order through
:meth:`~repro.logs.events.Trace.replace_run`.  The trace-rewriting route
the table is held to lives with the tests (``tests/merge_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

from repro.exceptions import EventLogError, GraphError
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


def _pairs(variant: tuple[str, ...]) -> Iterable[tuple[str, str]]:
    return zip(variant, variant[1:])


def _shift(counter: dict, keys: Iterable, weight: int) -> None:
    """Add *weight* to *counter* once per key; counts that reach 0 go."""
    for key in keys:
        count = counter.get(key, 0) + weight
        if count:
            counter[key] = count
        else:
            del counter[key]


@dataclass(eq=False, slots=True)
class CountTable:
    """One log's variant table and the integer counters read from it.

    ``variants[i]`` is the current activity tuple of the log's *i*-th
    variant (first-seen order) and ``multiplicities[i]`` its trace count;
    ids stay put when merges rewrite variants, even when two of them come
    to hold the same tuple.  ``postings`` maps each activity to the ids
    of the variants containing it.  The counters:

    * ``activity[a]`` — traces containing ``a``;
    * ``pair[(a, b)]`` — traces where ``a b`` occur consecutively at least
      once (Definition 1's numerators: divided by ``trace_count`` they
      are :func:`repro.logs.stats.compute_statistics`, bit for bit);
    * ``occurrences[a]`` — every occurrence of ``a``;
    * ``follows[(a, b)]`` — every consecutive occurrence of ``a b`` (what
      :func:`repro.core.composite.discover_candidates` reads).

    Absent keys count 0; no counter holds a 0.
    """

    trace_count: int
    variants: list[tuple[str, ...]]
    multiplicities: list[int]
    postings: dict[str, set[int]]
    activity: dict[str, int]
    pair: dict[tuple[str, str], int]
    occurrences: dict[str, int]
    follows: dict[tuple[str, str], int]

    @classmethod
    def from_log(cls, log: EventLog) -> "CountTable":
        """The table of *log*, counted over its variant table."""
        variants = list(log.variant_counts().items())
        postings: dict[str, set[int]] = {}
        for i, (variant, _) in enumerate(variants):
            for activity in set(variant):
                ids = postings.get(activity)
                if ids is None:
                    postings[activity] = {i}
                else:
                    ids.add(i)
        multiplicities = [multiplicity for _, multiplicity in variants]
        return cls(
            trace_count=len(log),
            variants=[variant for variant, _ in variants],
            multiplicities=multiplicities,
            postings=postings,
            activity={
                activity: sum(map(multiplicities.__getitem__, ids))
                for activity, ids in postings.items()
            },
            pair=dict(log.pair_trace_counts()),
            occurrences=dict(log.count_over_variants(lambda variant: variant)),
            follows=dict(log.count_over_variants(_pairs)),
        )

    def statistics(self) -> LogStatistics:
        """Definition 1's normalized frequencies of the counted log."""
        return _statistics(self.trace_count, self.activity, self.pair)

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
        """Advance the table past an accepted merge (in place).

        The trace counters take the delta's patched values; the
        occurrence counters are shifted by each rewritten variant's
        multiplicity; the variants and their postings move to the
        rewritten tuples.
        """
        for counter, changes in (
            (self.activity, delta.activity_changes),
            (self.pair, delta.pair_changes),
        ):
            for key, (_, new) in changes.items():
                if new:
                    counter[key] = new
                else:
                    del counter[key]
        for i, old, new in delta.affected:
            weight = self.multiplicities[i]
            _shift(self.occurrences, old, -weight)
            _shift(self.occurrences, new, weight)
            _shift(self.follows, _pairs(old), -weight)
            _shift(self.follows, _pairs(new), weight)
            old_activities, new_activities = set(old), set(new)
            for activity in old_activities - new_activities:
                ids = self.postings[activity]
                ids.discard(i)
                if not ids:
                    del self.postings[activity]
            for activity in new_activities - old_activities:
                self.postings.setdefault(activity, set()).add(i)
            self.variants[i] = new


def _statistics(
    trace_count: int, activity: Mapping[str, int], pair: Mapping[tuple[str, str], int]
) -> LogStatistics:
    if trace_count == 0:
        raise EventLogError("cannot compute statistics of an empty event log")
    return LogStatistics(
        trace_count=trace_count,
        activity_frequencies={a: count / trace_count for a, count in activity.items()},
        pair_frequencies={p: count / trace_count for p, count in pair.items()},
    )


@dataclass(frozen=True, slots=True)
class MergeDelta:
    """Everything one candidate merge changes, in patchable form.

    ``activity`` / ``pair`` are the merged log's patched trace counters;
    ``affected`` the rewritten variants (variant id, old activity tuple,
    new activity tuple);
    ``activity_changes`` / ``pair_changes`` map each touched counter key to
    its ``(old, new)`` integer counts — the raw material for computing
    which nodes' in/out edge sets changed (and hence where Proposition-2
    levels must be recomputed).
    """

    run: tuple[str, ...]
    name: str
    trace_count: int
    activity: dict[str, int]
    pair: dict[tuple[str, str], int]
    affected: tuple[tuple[int, tuple[str, ...], tuple[str, ...]], ...]
    activity_changes: dict[str, tuple[int, int]]
    pair_changes: dict[tuple[str, str], tuple[int, int]]

    def statistics(self) -> LogStatistics:
        """Definition 1's normalized frequencies of the merged log."""
        return _statistics(self.trace_count, self.activity, self.pair)

    def changed_nodes(self, min_frequency: float = 0.0) -> tuple[set[str], set[str]]:
        """``(in_changed, out_changed)``: nodes whose real edge sets moved.

        A node's *in*-edge set changes when it gains or loses a
        surviving-the-``min_frequency``-filter incoming edge; likewise
        *out* for outgoing.  Run members and the composite name are always
        included (nodes removed/added outright).  These are exactly the
        ``changed`` sets :func:`repro.graph.levels.patched_longest_distances`
        needs for the forward and reversed merged graphs respectively.
        """
        tc = self.trace_count
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


def merge_counts(table: CountTable, run: Sequence[str]) -> MergeDelta:
    """The trace counters after merging *run*, touching only affected variants.

    Equivalent to rewriting the log and recounting it from scratch, but
    proportional to the distinct variants that actually contain the
    contiguous run: each is rewritten once, by
    :func:`~repro.logs.events.collapse_run`, and moves the counters by its
    multiplicity.  *table* is not mutated; :meth:`CountTable.apply`
    advances it once the merge is accepted.
    """
    run = tuple(run)
    if len(run) < 2:
        raise GraphError(f"a composite run needs at least two members, got {run!r}")
    if len(set(run)) != len(run):
        raise GraphError(f"composite run has repeated members: {run!r}")
    name = composite_name(run)

    activity = dict(table.activity)
    pair = dict(table.pair)
    activity_changes: dict[str, tuple[int, int]] = {}
    pair_changes: dict[tuple[str, str], tuple[int, int]] = {}
    affected: list[tuple[int, tuple[str, ...], tuple[str, ...]]] = []

    for i in table.candidate_variants(run):
        variant = table.variants[i]
        new_variant = collapse_run(variant, run, name)
        if new_variant is variant:
            continue  # members present but never contiguous in this variant
        affected.append((i, variant, new_variant))
        weight = table.multiplicities[i]
        for counter, changes, old_keys, new_keys in (
            (activity, activity_changes, set(variant), set(new_variant)),
            (pair, pair_changes, set(_pairs(variant)), set(_pairs(new_variant))),
        ):
            gone, added = old_keys - new_keys, new_keys - old_keys
            for key in chain(gone, added):
                if key not in changes:
                    changes[key] = (counter.get(key, 0), 0)
            _shift(counter, gone, -weight)
            _shift(counter, added, weight)

    return MergeDelta(
        run=run,
        name=name,
        trace_count=table.trace_count,
        activity=activity,
        pair=pair,
        affected=tuple(affected),
        activity_changes={
            a: (old, activity.get(a, 0)) for a, (old, _) in activity_changes.items()
        },
        pair_changes={p: (old, pair.get(p, 0)) for p, (old, _) in pair_changes.items()},
    )


def merged_member_map(
    activities: Iterable[str],
    run: Sequence[str],
    members: Mapping[str, frozenset[str]] | None,
) -> dict[str, frozenset[str]]:
    """The node → original-activities map after merging *run*.

    *activities* are the merged log's; the composite maps to its expanded
    members, every other activity to its previous member set (itself when
    it has none).
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


def rewrite_log(
    log: EventLog, table: CountTable, runs: Sequence[Sequence[str]]
) -> EventLog:
    """*log* with the composite *runs* merged, in order.

    *table* is *log*'s count table advanced past those runs.  Each trace
    of a variant the table rewrote goes through
    :meth:`~repro.logs.events.Trace.replace_run` once per run (its new
    event keeps the first member's timestamp and attributes); every other
    trace is shared.  Equal, position for position and in variant-table
    order, to rewriting the log once per run.
    """
    if not runs:
        return log
    steps = [(tuple(run), composite_name(run)) for run in runs]

    def transform(trace):
        for run, name in steps:
            trace = trace.replace_run(run, name)
        return trace

    rewrites = {
        old: new
        for old, new in zip(log.variant_counts(), table.variants)
        if new != old
    }
    return log.rewrite_variants(rewrites, transform)


def merge_runs(
    log: EventLog,
    runs: Iterable[Sequence[str]],
    members: Mapping[str, frozenset[str]] | None = None,
) -> tuple[EventLog, dict[str, frozenset[str]]]:
    """Merge the composite *runs* into *log*, in order.

    Returns the merged log and its node → original-activities map;
    *members* is *log*'s own map (every activity stands for itself when
    it is left out).
    """
    table = CountTable.from_log(log)
    members = members or {}
    merged_members = {a: members.get(a, frozenset({a})) for a in sorted(table.activity)}
    runs = [tuple(run) for run in runs]
    for run in runs:
        delta = merge_counts(table, run)
        merged_members = merged_member_map(sorted(delta.activity), run, merged_members)
        table.apply(delta)
    return rewrite_log(log, table, runs), merged_members


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
        delta.statistics(),
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
