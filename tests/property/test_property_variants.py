"""Differential suite: variant-table counts vs the per-trace oracle.

Every count ``src/`` takes over an in-memory log walks the log's variant
table once per distinct activity sequence and weights it by its
multiplicity.  On logs built to repeat variants (each drawn trace copied
1–5 times, shuffled) these tests hold that route to the per-trace
counters of ``tests/count_oracle.py``: statistics, the count table,
delta counts, changed counter keys and nodes along chains of merges,
candidate discovery on patched counters, and the merged log written once
at the end of a chain, position for position.
"""

import random as random_module
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.composite import discover_candidates
from repro.graph.merge import CountTable, merge_counts, rewrite_log
from repro.logs.log import EventLog
from repro.logs.stats import (
    compute_statistics,
    end_activity_counts,
    start_activity_counts,
    summarize,
)
from tests import count_oracle as oracle
from tests.count_oracle import duplicated_log
from tests.merge_oracle import merge_run_in_log

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def random_run(rng: random_module.Random, log: EventLog) -> tuple[str, ...]:
    """A window of 2–3 distinct activities of a random trace of *log*."""
    for _ in range(10):
        trace = rng.choice(log.traces)
        if len(trace) < 2:
            continue
        start = rng.randrange(len(trace) - 1)
        width = rng.randint(2, min(3, len(trace) - start))
        run = trace.activities[start:start + width]
        if len(set(run)) == len(run):
            return run
    return ("a", "b")


def assert_same_traces(expected: EventLog, actual: EventLog) -> None:
    assert len(expected) == len(actual)
    for want, got in zip(expected, actual):
        assert want.case_id == got.case_id
        assert want.events == got.events


@given(seeds)
@settings(max_examples=60, deadline=None)
@example(0)
def test_log_counts_equal_oracle(seed):
    log = duplicated_log(seed)
    assert log.activity_trace_counts() == oracle.activity_trace_counts(log)
    assert log.pair_trace_counts() == oracle.pair_trace_counts(log)
    assert compute_statistics(log) == oracle.statistics(log)
    table, expected = CountTable.from_log(log), oracle.count_table(log)
    assert oracle.counters(table) == oracle.counters(expected)
    assert table.variants == expected.variants
    assert table.multiplicities == expected.multiplicities
    assert table.postings == expected.postings
    assert table.statistics() == oracle.statistics(log)
    assert start_activity_counts(log) == Counter(t.activities[0] for t in log)
    assert end_activity_counts(log) == Counter(t.activities[-1] for t in log)
    lengths = [len(trace) for trace in log]
    summary = summarize(log)
    assert summary.event_count == sum(lengths)
    assert summary.mean_trace_length == sum(lengths) / len(lengths)
    assert summary.variant_count == len({t.activities for t in log})


@given(seeds, st.sampled_from([1.0, 0.8, 0.5]), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_discover_candidates_equal_oracle(seed, min_confidence, max_run_length):
    log = duplicated_log(seed, alphabet="abcd")
    actual = discover_candidates(CountTable.from_log(log), min_confidence, max_run_length)
    expected = discover_candidates(oracle.count_table(log), min_confidence, max_run_length)
    assert actual == expected


@given(seeds, seeds, st.integers(1, 3), st.sampled_from([0.0, 0.3]))
@settings(max_examples=50, deadline=None)
@example(0, 0, 3, 0.0)
def test_merge_chain_equals_oracle(seed, run_seed, chain, min_frequency):
    original = log = duplicated_log(seed)
    rng = random_module.Random(run_seed)
    table = CountTable.from_log(log)
    runs: list[tuple[str, ...]] = []
    for _ in range(chain):
        run = random_run(rng, log)
        delta = merge_counts(table, run)
        rewritten, _ = merge_run_in_log(log, run)
        before, after = oracle.count_table(log), oracle.count_table(rewritten)

        assert (delta.trace_count, delta.activity, delta.pair) == (
            after.trace_count, after.activity, after.pair
        )
        assert delta.activity_changes == oracle.count_changes(before.activity, after.activity)
        assert delta.pair_changes == oracle.count_changes(before.pair, after.pair)
        assert delta.changed_nodes(min_frequency) == oracle.changed_nodes(
            before, after, run, delta.name, min_frequency
        )
        # merge_counts leaves the table as it was.
        assert oracle.counters(table) == oracle.counters(before)

        # Applied, the delta patches all four counters to the recount of
        # the rewritten log, and discovery reads them alike.
        table.apply(delta)
        runs.append(run)
        assert oracle.counters(table) == oracle.counters(after)
        for min_confidence in (1.0, 0.5):
            assert discover_candidates(table, min_confidence, 3) == discover_candidates(
                after, min_confidence, 3
            )
        variants: Counter[tuple[str, ...]] = Counter()
        for variant, multiplicity in zip(table.variants, table.multiplicities):
            variants[variant] += multiplicity
        assert variants == rewritten.variant_counts()

        # The log written once from the table equals the sequential
        # rewrites: traces, case ids, timestamps, attributes, and the
        # variant table in first-seen order, colliding variants included.
        merged = rewrite_log(original, table, runs)
        assert_same_traces(rewritten, merged)
        assert list(merged.variant_counts().items()) == list(
            rewritten.variant_counts().items()
        )
        log = rewritten
