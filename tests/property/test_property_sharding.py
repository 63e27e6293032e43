"""Property suite: any partition of a log's traces reproduces the batch answer.

The load-bearing invariant of the out-of-core pipeline: however a log's
traces are cut — CSV rows case-hash partitioned to disk into any number
of spill files, counts folded from uneven or empty parts, stored counts
continued by a tail — the resulting statistics and any graph built from
them are *bit-identical* to the batch computation.  Definition-1
statistics are integer sums over traces, and the final division by the
(identical) trace count is partition-insensitive.
"""

import csv
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.dependency import DependencyGraph
from repro.logs.csvio import read_csv
from repro.logs.log import EventLog
from repro.logs.stats import compute_statistics
from repro.logs.streaming import OnlineStatistics
from repro.logs.xes import read_xes, write_xes
from repro.store import partition_csv, stream_traces

activity = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), max_codepoint=0x2FF),
    min_size=1,
    max_size=8,
)
trace_strategy = st.lists(activity, min_size=1, max_size=8)
log_strategy = st.lists(trace_strategy, min_size=1, max_size=12)


def monolithic(traces):
    return compute_statistics(EventLog(traces, name="prop"))


def write_interleaved_csv(path, traces):
    """The traces as CSV rows, cases interleaved position by position —
    the layout a single forward pass cannot cut into whole cases."""
    rows = sorted(
        (position, index, activity)
        for index, activities in enumerate(traces)
        for position, activity in enumerate(activities)
    )
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["case_id", "activity", "timestamp"])
        for position, index, activity in rows:
            writer.writerow([f"case-{index}", activity, f"{position}.0"])


@given(log_strategy, st.integers(min_value=1, max_value=20))
@settings(max_examples=60, deadline=None)
def test_any_partition_count_matches_batch_reader(tmp_path_factory, traces, partitions):
    """Every partition count — 1 (one spill file), and counts exceeding
    the case count (empty partitions) — streams to the batch reader's
    statistics."""
    tmp_path = tmp_path_factory.mktemp("partitions")
    path = tmp_path / "log.csv"
    write_interleaved_csv(path, traces)
    stats = OnlineStatistics()
    for _, activities in stream_traces(
        path, spill_dir=tmp_path / "spill", partitions=partitions
    ):
        stats.add_sequence(activities)
    assert stats.snapshot() == compute_statistics(read_csv(path, name="log"))


@given(log_strategy, st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_partitions_reassemble_batch_cases(tmp_path_factory, traces, partitions):
    """Each case lands whole in exactly one partition file: parsing the
    files one by one with the batch reader gives the batch traces."""
    tmp_path = tmp_path_factory.mktemp("partitions")
    path = tmp_path / "log.csv"
    write_interleaved_csv(path, traces)
    files = partition_csv(path, tmp_path / "spill", partitions)
    assert len(files) == partitions
    owners: Counter[str] = Counter()
    parts = {}
    for file in files:
        for trace in read_csv(file, name="log"):
            owners[trace.case_id] += 1
            parts[trace.case_id] = trace.activities
    batch = {trace.case_id: trace.activities for trace in read_csv(path, name="log")}
    assert parts == batch
    assert set(owners.values()) == {1}


@given(log_strategy)
@settings(max_examples=40, deadline=None)
def test_xes_stream_matches_batch_reader(tmp_path_factory, traces):
    tmp_path = tmp_path_factory.mktemp("xes")
    path = tmp_path / "log.xes"
    write_xes(EventLog(traces, name="prop"), path)
    stats = OnlineStatistics()
    for _, activities in stream_traces(path):
        stats.add_sequence(activities)
    assert stats.snapshot() == compute_statistics(read_xes(path))


@given(
    st.lists(
        st.tuples(trace_strategy, st.integers(min_value=0, max_value=5)),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_arbitrary_partition_graph_bit_identical(assigned):
    """Any assignment of traces to parts — uneven, empty parts, all in
    one — folded with ``merge_into`` rebuilds the monolithic graph with
    bit-equal edge frequencies."""
    shards = [OnlineStatistics() for _ in range(6)]
    for trace, shard in assigned:
        shards[shard].add_trace(trace)
    total = OnlineStatistics()
    for shard in shards:
        if shard.trace_count:
            shard.merge_into(total)
    traces = [trace for trace, _ in assigned]
    batch = monolithic(traces)
    assert total.snapshot() == batch
    from_shards = DependencyGraph.from_statistics(total.snapshot(), name="prop")
    from_batch = DependencyGraph.from_log(EventLog(traces, name="prop"))
    assert from_shards.nodes == from_batch.nodes
    assert from_shards.real_edges == from_batch.real_edges


@given(
    st.lists(
        st.tuples(trace_strategy, st.integers(min_value=0, max_value=3)),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_merge_into_fold_order_irrelevant(assigned):
    """Folding the parts with ``merge_into`` forward and in reverse gives
    the same counts, and both equal the monolithic computation."""
    parts = [OnlineStatistics() for _ in range(4)]
    for trace, part in assigned:
        parts[part].add_trace(trace)
    forward = OnlineStatistics()
    for part in parts:
        part.merge_into(forward)
    backward = OnlineStatistics()
    for part in reversed(parts):
        part.merge_into(backward)
    assert forward.snapshot() == backward.snapshot()
    assert forward.snapshot() == monolithic([trace for trace, _ in assigned])


@given(log_strategy, st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_seeded_counts_continue_exactly(traces, split):
    """Seeding an accumulator from stored integer counts and adding the
    remaining traces equals ingesting everything fresh — the append fast
    path's soundness, minus the I/O."""
    cut = min(split, len(traces))
    prefix = OnlineStatistics()
    for trace in traces[:cut]:
        prefix.add_trace(trace)
    resumed = OnlineStatistics()
    resumed.seed_counts(
        prefix.trace_count,
        dict(prefix.activity_counts),
        dict(prefix.pair_counts),
    )
    for trace in traces[cut:]:
        resumed.add_trace(trace)
    assert resumed.snapshot() == monolithic(traces)
