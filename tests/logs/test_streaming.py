"""Tests for the streaming statistics accumulator."""

import pytest

from repro.exceptions import EventLogError
from repro.graph.dependency import DependencyGraph
from repro.logs.log import RESERVED_ACTIVITY, EventLog
from repro.logs.stats import compute_statistics
from repro.logs.streaming import OnlineStatistics


class TestAccumulation:
    def test_matches_batch_computation(self, fig1_logs):
        log = fig1_logs[0]
        online = OnlineStatistics()
        online.add_log(log)
        snapshot = online.snapshot()
        batch = compute_statistics(log)
        assert snapshot.trace_count == batch.trace_count
        assert snapshot.activity_frequencies == batch.activity_frequencies
        assert snapshot.pair_frequencies == batch.pair_frequencies

    def test_incremental_equals_batch_at_every_prefix(self, fig1_logs):
        log = fig1_logs[0]
        online = OnlineStatistics()
        seen = []
        for trace in log:
            online.add_trace(trace)
            seen.append(trace)
            batch = compute_statistics(EventLog(seen))
            assert online.snapshot() == batch

    def test_accepts_bare_sequences(self):
        online = OnlineStatistics()
        online.add_trace(["a", "b"])
        assert online.trace_count == 1

    def test_empty_trace_rejected(self):
        with pytest.raises(EventLogError):
            OnlineStatistics().add_trace([])

    def test_reserved_name_rejected(self):
        with pytest.raises(EventLogError):
            OnlineStatistics().add_trace([RESERVED_ACTIVITY])

    def test_snapshot_requires_data(self):
        with pytest.raises(EventLogError):
            OnlineStatistics().snapshot()


class TestMerge:
    def test_merge_equals_union(self, fig1_logs):
        log = fig1_logs[0]
        traces = list(log)
        first = OnlineStatistics()
        second = OnlineStatistics()
        for trace in traces[:4]:
            first.add_trace(trace)
        for trace in traces[4:]:
            second.add_trace(trace)
        second.merge_into(first)
        assert first.snapshot() == compute_statistics(log)

    def test_merge_into_leaves_source_untouched(self):
        source = OnlineStatistics()
        source.add_trace(["a", "b"])
        target = OnlineStatistics()
        target.add_trace(["b", "c"])
        source.merge_into(target)
        assert source.trace_count == 1
        assert dict(source.activity_counts) == {"a": 1, "b": 1}
        assert target.trace_count == 2


class TestSequencesAndSeeding:
    def test_add_sequence_matches_add_trace(self, fig1_logs):
        log = fig1_logs[0]
        by_trace = OnlineStatistics()
        by_sequence = OnlineStatistics()
        for trace in log:
            by_trace.add_trace(trace)
            by_sequence.add_sequence(trace.activities)
        assert by_sequence.snapshot() == by_trace.snapshot()

    def test_add_sequence_counts_repeats_once_per_trace(self):
        online = OnlineStatistics()
        online.add_sequence(["a", "a", "b", "a"])
        assert dict(online.activity_counts) == {"a": 1, "b": 1}
        assert dict(online.pair_counts) == {("a", "a"): 1, ("a", "b"): 1, ("b", "a"): 1}

    def test_add_sequence_validates(self):
        with pytest.raises(EventLogError):
            OnlineStatistics().add_sequence([])
        with pytest.raises(EventLogError):
            OnlineStatistics().add_sequence([RESERVED_ACTIVITY])

    def test_seed_counts_round_trips(self, fig1_logs):
        log = fig1_logs[0]
        original = OnlineStatistics()
        original.add_log(log)
        restored = OnlineStatistics()
        restored.seed_counts(
            original.trace_count,
            dict(original.activity_counts),
            dict(original.pair_counts),
        )
        assert restored.snapshot() == original.snapshot()

    def test_seed_counts_requires_empty_accumulator(self):
        online = OnlineStatistics()
        online.add_trace(["a"])
        with pytest.raises(EventLogError):
            online.seed_counts(1, {"a": 1}, {})


class TestGraphRefresh:
    def test_snapshot_builds_identical_graph(self, fig1_logs):
        log = fig1_logs[0]
        online = OnlineStatistics()
        online.add_log(log)
        from_stream = DependencyGraph.from_statistics(online.snapshot())
        from_batch = DependencyGraph.from_log(log)
        assert from_stream.nodes == from_batch.nodes
        assert from_stream.real_edges == from_batch.real_edges
