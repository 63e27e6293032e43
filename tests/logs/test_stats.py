"""Unit tests for log statistics — the Definition 1 inputs."""

import pytest

from repro.exceptions import EventLogError
from repro.graph.merge import CountTable
from repro.logs.log import EventLog
from repro.logs.stats import (
    compute_statistics,
    end_activity_counts,
    start_activity_counts,
    summarize,
)


@pytest.fixture()
def small_log() -> EventLog:
    # 4 x ACDEF, 6 x BCDFE — the Figure 1 L1 mix.
    return EventLog([list("ACDEF")] * 4 + [list("BCDFE")] * 6)


class TestComputeStatistics:
    def test_rejects_empty_log(self):
        with pytest.raises(EventLogError):
            compute_statistics(EventLog())

    def test_node_frequencies_match_figure2(self, small_log):
        stats = compute_statistics(small_log)
        assert stats.activity_frequencies["A"] == pytest.approx(0.4)
        assert stats.activity_frequencies["B"] == pytest.approx(0.6)
        assert stats.activity_frequencies["C"] == pytest.approx(1.0)

    def test_pair_frequencies_match_figure2(self, small_log):
        stats = compute_statistics(small_log)
        assert stats.pair_frequencies[("A", "C")] == pytest.approx(0.4)
        assert stats.pair_frequencies[("B", "C")] == pytest.approx(0.6)
        assert stats.pair_frequencies[("C", "D")] == pytest.approx(1.0)

    def test_pair_counted_once_per_trace(self):
        stats = compute_statistics(EventLog([["a", "b", "a", "b"]]))
        assert stats.pair_frequencies[("a", "b")] == pytest.approx(1.0)

    def test_frequencies_in_unit_interval(self, small_log):
        stats = compute_statistics(small_log)
        for value in stats.activity_frequencies.values():
            assert 0.0 < value <= 1.0
        for value in stats.pair_frequencies.values():
            assert 0.0 < value <= 1.0


class TestSummaries:
    def test_summarize(self, small_log):
        summary = summarize(small_log)
        assert summary.trace_count == 10
        assert summary.event_count == 50
        assert summary.activity_count == 6
        assert summary.variant_count == 2
        assert summary.mean_trace_length == pytest.approx(5.0)

    def test_summarize_empty_rejected(self):
        with pytest.raises(EventLogError):
            summarize(EventLog())

    def test_start_and_end_counts(self, small_log):
        assert start_activity_counts(small_log)["A"] == 4
        assert start_activity_counts(small_log)["B"] == 6
        assert end_activity_counts(small_log)["F"] == 4
        assert end_activity_counts(small_log)["E"] == 6

    def test_directly_follows_counts_every_occurrence(self):
        counts = CountTable.from_log(EventLog([["a", "b", "a", "b"]])).follows
        assert counts[("a", "b")] == 2

    def test_occurrence_counts(self):
        counts = CountTable.from_log(EventLog([["a", "a", "b"]])).occurrences
        assert counts["a"] == 2
        assert counts["b"] == 1
