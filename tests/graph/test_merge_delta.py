"""Differential tests: count-table patching vs the full log rewrite.

The table path (`CountTable` + `merge_counts` + `merged_graph_from_delta`,
with the merged log written once by `rewrite_log`) must reproduce the
ground-truth rewrite path (`tests.merge_oracle.merge_run_in_log` +
`DependencyGraph.from_log`) bit for bit — counts, frequencies, member
maps, logs, graphs and Proposition-2 levels.
"""

import random as random_module

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph.dependency import ARTIFICIAL, DependencyGraph
from repro.graph.levels import longest_distances, patched_longest_distances
from repro.graph.merge import (
    CountTable,
    merge_counts,
    merged_graph_from_delta,
    merged_member_map,
    rewrite_log,
)
from repro.logs.log import EventLog
from repro.logs.stats import compute_statistics
from tests import count_oracle
from tests.merge_oracle import merge_run_in_log

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def random_log(seed: int, alphabet: str = "abcdefg") -> EventLog:
    rng = random_module.Random(seed)
    traces = []
    for _ in range(rng.randint(2, 10)):
        length = rng.randint(1, 8)
        traces.append([rng.choice(alphabet) for _ in range(length)])
    return EventLog(traces, name=f"rand-{seed}")


def random_run(seed: int, log: EventLog) -> tuple[str, ...]:
    rng = random_module.Random(seed ^ 0x5EED)
    # Prefer a run that actually occurs: pick a random window of a trace.
    for _ in range(10):
        trace = rng.choice(log.traces)
        if len(trace) < 2:
            continue
        start = rng.randrange(len(trace) - 1)
        width = rng.randint(2, min(3, len(trace) - start))
        run = trace.activities[start:start + width]
        if len(set(run)) == len(run):
            return run
    return ("a", "b")  # may or may not occur — both paths must agree anyway


def assert_graphs_identical(expected: DependencyGraph, actual: DependencyGraph):
    assert expected.nodes == actual.nodes
    for node in expected.nodes:
        assert expected.frequency(node) == actual.frequency(node)
        assert expected.members(node) == actual.members(node)
        assert expected.predecessors(node) == actual.predecessors(node)
        assert expected.successors(node) == actual.successors(node)
    assert expected.real_edges == actual.real_edges
    assert expected.levels() == actual.levels()
    assert expected.reversed().levels() == actual.reversed().levels()


@given(seeds, seeds)
@settings(max_examples=40, deadline=None)
def test_merge_counts_matches_recount(seed, run_seed):
    log = random_log(seed)
    run = random_run(run_seed, log)
    table = CountTable.from_log(log)
    delta = merge_counts(table, run)

    rewritten, _ = merge_run_in_log(log, run)
    expected = CountTable.from_log(rewritten)
    assert delta.trace_count == expected.trace_count
    assert delta.activity == expected.activity
    assert delta.pair == expected.pair
    # The patched statistics divide the same integers: bit-identical floats.
    assert delta.statistics() == compute_statistics(rewritten)
    # merge_counts left the table as it was.
    assert count_oracle.counters(table) == count_oracle.counters(CountTable.from_log(log))

    # The log written from the advanced table reproduces the rewrite,
    # variant table order included: counts iterate in first-seen order.
    table.apply(delta)
    assert count_oracle.counters(table) == count_oracle.counters(expected)
    merged = rewrite_log(log, table, [run])
    assert merged == rewritten
    assert list(merged.variant_counts().items()) == list(
        rewritten.variant_counts().items()
    )
    assert [trace.activities for trace in merged] == [
        trace.activities for trace in rewritten
    ]


@given(seeds, seeds)
@settings(max_examples=40, deadline=None)
def test_delta_graph_matches_full_rebuild(seed, run_seed):
    log = random_log(seed)
    run = random_run(run_seed, log)
    parent_members = {a: frozenset({a}) for a in log.activities()}
    parent = DependencyGraph.from_log(log, members=parent_members)

    delta = merge_counts(CountTable.from_log(log), run)
    members = merged_member_map(sorted(delta.activity), run, parent_members)
    actual = merged_graph_from_delta(parent, delta, 0.0, members)

    rewritten, expected_members = merge_run_in_log(log, run, parent_members)
    expected = DependencyGraph.from_log(rewritten, members=expected_members)
    assert members == expected_members
    assert_graphs_identical(expected, actual)


@given(seeds, seeds, st.sampled_from([0.0, 0.2, 0.5]))
@settings(max_examples=30, deadline=None)
def test_delta_graph_matches_under_min_frequency(seed, run_seed, min_frequency):
    log = random_log(seed)
    run = random_run(run_seed, log)
    parent_members = {a: frozenset({a}) for a in log.activities()}
    parent = DependencyGraph.from_log(
        log, min_frequency=min_frequency, members=parent_members
    )
    delta = merge_counts(CountTable.from_log(log), run)
    members = merged_member_map(sorted(delta.activity), run, parent_members)
    actual = merged_graph_from_delta(parent, delta, min_frequency, members)

    rewritten, expected_members = merge_run_in_log(log, run, parent_members)
    expected = DependencyGraph.from_log(
        rewritten, min_frequency=min_frequency, members=expected_members
    )
    assert_graphs_identical(expected, actual)


@given(seeds, seeds, seeds)
@settings(max_examples=20, deadline=None)
def test_count_table_apply_stays_consistent(seed, run_seed, second_seed):
    """After applying an accepted merge, a second delta still matches."""
    log = random_log(seed)
    run = random_run(run_seed, log)
    table = CountTable.from_log(log)
    delta = merge_counts(table, run)
    table.apply(delta)
    merged_log, _ = merge_run_in_log(log, run)

    second_run = random_run(second_seed, merged_log)
    if len(set(second_run)) != len(second_run) or len(second_run) < 2:
        return
    second = merge_counts(table, second_run)
    rewritten, _ = merge_run_in_log(merged_log, second_run)
    assert second.activity == CountTable.from_log(rewritten).activity
    assert second.pair == CountTable.from_log(rewritten).pair


@given(seeds, seeds)
@settings(max_examples=40, deadline=None)
def test_patched_levels_match_full_recompute(seed, run_seed):
    log = random_log(seed)
    run = random_run(run_seed, log)
    parent = DependencyGraph.from_log(log)
    delta = merge_counts(CountTable.from_log(log), run)
    members = merged_member_map(sorted(delta.activity), run, None)
    merged = DependencyGraph.from_statistics(
        delta.statistics(), name=log.name, members=members
    )
    in_changed, out_changed = delta.changed_nodes(0.0)
    assert patched_longest_distances(
        merged, longest_distances(parent), in_changed
    ) == longest_distances(merged)
    assert patched_longest_distances(
        merged.reversed(), longest_distances(parent.reversed()), out_changed
    ) == longest_distances(merged.reversed())


def test_patched_levels_empty_changed_set_passthrough():
    log = EventLog([["a", "b", "c"], ["a", "c"]])
    graph = DependencyGraph.from_log(log)
    levels = longest_distances(graph)
    assert patched_longest_distances(graph, levels, set()) == levels


def test_patched_levels_rejects_unknown_new_node():
    log = EventLog([["a", "b"]])
    graph = DependencyGraph.from_log(log)
    with pytest.raises(GraphError):
        patched_longest_distances(graph, {ARTIFICIAL: 0.0}, set())


def test_merge_counts_validates_run():
    log = EventLog([["a", "b", "c"]])
    table = CountTable.from_log(log)
    with pytest.raises(GraphError):
        merge_counts(table, ("a",))
    with pytest.raises(GraphError):
        merge_counts(table, ("a", "a"))


def test_merge_counts_run_absent_is_identity():
    log = EventLog([["a", "b", "c"], ["c", "a"]])
    table = CountTable.from_log(log)
    delta = merge_counts(table, ("b", "a"))
    assert delta.affected == ()
    assert delta.activity == table.activity
    assert delta.pair == table.pair
    assert rewrite_log(log, table, [("b", "a")]) == log


def test_changed_nodes_tracks_min_frequency_crossings():
    # (b, c) occurs in 1 of 2 traces; merging (a, b) removes it entirely.
    log = EventLog([["a", "b", "c"], ["a", "b"]])
    delta = merge_counts(CountTable.from_log(log), ("a", "b"))
    in_changed, out_changed = delta.changed_nodes(0.0)
    assert "c" in in_changed          # lost its (b, c) in-edge
    assert set(delta.run) <= in_changed and set(delta.run) <= out_changed
    assert delta.name in in_changed and delta.name in out_changed


def test_apply_delta_merges_colliding_variants():
    # ("x", "a", "b") collapses onto the variant ("x", "⟨a+b⟩") the log
    # already has; their multiplicities add up, in first-seen order.  The
    # table keeps the two ids apart and still counts the merged log.
    log = EventLog(
        [["x", "⟨a+b⟩"], ["a", "b"], ["x", "a", "b"], ["x", "a", "b"]]
    )
    table = CountTable.from_log(log)
    table.apply(merge_counts(table, ("a", "b")))
    assert table.variants == [("x", "⟨a+b⟩"), ("⟨a+b⟩",), ("x", "⟨a+b⟩")]
    merged = rewrite_log(log, table, [("a", "b")])
    rewritten, _ = merge_run_in_log(log, ("a", "b"))
    assert count_oracle.counters(table) == count_oracle.counters(
        count_oracle.count_table(rewritten)
    )
    assert list(merged.variant_counts().items()) == [
        (("x", "⟨a+b⟩"), 3), (("⟨a+b⟩",), 1)
    ]
    assert list(merged.variant_counts().items()) == list(
        rewritten.variant_counts().items()
    )
