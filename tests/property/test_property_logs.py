"""Property-based tests of the log substrate."""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logs.csvio import read_csv, write_csv
from repro.logs.events import Trace
from repro.logs.log import EventLog
from repro.logs.stats import compute_statistics
from repro.logs.xes import read_xes, write_xes

activity = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), max_codepoint=0x2FF),
    min_size=1,
    max_size=8,
)
trace_strategy = st.lists(activity, min_size=1, max_size=8)
log_strategy = st.lists(trace_strategy, min_size=1, max_size=12)


def build_log(traces: list[list[str]]) -> EventLog:
    return EventLog(traces, name="prop")


@given(log_strategy)
@settings(max_examples=60, deadline=None)
def test_statistics_frequencies_bounded(traces):
    stats = compute_statistics(build_log(traces))
    assert all(0 < value <= 1 for value in stats.activity_frequencies.values())
    assert all(0 < value <= 1 for value in stats.pair_frequencies.values())
    # Every edge endpoint is a known activity.
    for source, target in stats.pair_frequencies:
        assert source in stats.activity_frequencies
        assert target in stats.activity_frequencies


@given(log_strategy)
@settings(max_examples=60, deadline=None)
def test_pair_frequency_bounded_by_node_frequencies(traces):
    stats = compute_statistics(build_log(traces))
    for (source, target), frequency in stats.pair_frequencies.items():
        assert frequency <= stats.activity_frequencies[source] + 1e-12
        assert frequency <= stats.activity_frequencies[target] + 1e-12


@given(log_strategy)
@settings(max_examples=40, deadline=None)
def test_xes_roundtrip(traces):
    log = build_log(traces)
    buffer = io.BytesIO()
    write_xes(log, buffer)
    buffer.seek(0)
    assert read_xes(buffer) == log


@given(log_strategy)
@settings(max_examples=40, deadline=None)
def test_csv_roundtrip(traces):
    log = build_log(traces)
    buffer = io.StringIO()
    write_csv(log, buffer)
    buffer.seek(0)
    assert read_csv(buffer) == log


@given(trace_strategy, st.integers(min_value=0, max_value=10))
@settings(max_examples=60, deadline=None)
def test_prefix_suffix_partition(activities, count):
    trace = Trace(activities)
    head = activities[:count]
    rest = trace.drop_prefix(count)
    assert list(head) + list(rest.activities) == activities


@given(trace_strategy, activity)
@settings(max_examples=60, deadline=None)
def test_replace_run_never_grows(activities, replacement):
    trace = Trace(activities)
    if len(activities) >= 2:
        run = tuple(activities[:2])
        if run[0] != run[1]:
            merged = trace.replace_run(run, replacement)
            assert len(merged) <= len(trace)


#: A log whose traces additionally carry a shard assignment, for the
#: streaming-accumulator merge property below.
sharded_log_strategy = st.lists(
    st.tuples(trace_strategy, st.integers(min_value=0, max_value=3)),
    min_size=1,
    max_size=12,
)


@given(sharded_log_strategy)
@settings(max_examples=60, deadline=None)
def test_sharded_streaming_merge_equals_batch(assigned):
    """Splitting a log across accumulators and merging loses nothing.

    Ingesting the traces into k shards in any split and folding the
    shards with :meth:`OnlineStatistics.merge_into`, in either order,
    must reproduce the batch :func:`compute_statistics` snapshot
    exactly — the fold adds the integer counters, and the final division
    by the identical trace count makes even the floats bit-equal.
    """
    from repro.logs.streaming import OnlineStatistics

    shards = [OnlineStatistics() for _ in range(4)]
    for trace, shard in assigned:
        shards[shard].add_trace(trace)
    merged = OnlineStatistics()
    for shard in shards:
        shard.merge_into(merged)
    reversed_merge = OnlineStatistics()
    for shard in reversed(shards):
        shard.merge_into(reversed_merge)
    batch = compute_statistics(build_log([trace for trace, _ in assigned]))
    assert merged.snapshot() == batch
    assert reversed_merge.snapshot() == batch  # merge order is irrelevant
