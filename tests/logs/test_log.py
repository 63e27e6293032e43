"""Unit tests for EventLog."""

import pytest

from repro.exceptions import EventLogError
from repro.logs.events import Trace
from repro.logs.log import RESERVED_ACTIVITY, EventLog


class TestConstruction:
    def test_accepts_nested_sequences(self):
        log = EventLog([["a", "b"], ["b"]])
        assert len(log) == 2

    def test_rejects_empty_trace(self):
        with pytest.raises(EventLogError):
            EventLog([[]])

    def test_rejects_reserved_activity(self):
        with pytest.raises(EventLogError):
            EventLog([[RESERVED_ACTIVITY]])

    def test_append_type_checked(self):
        log = EventLog()
        with pytest.raises(TypeError):
            log.append(["a"])  # type: ignore[arg-type]

    def test_multiset_semantics(self):
        log = EventLog([["a"], ["a"]])
        assert len(log) == 2
        assert log.variant_counts()[("a",)] == 2


class TestEquality:
    def test_order_insensitive(self):
        assert EventLog([["a"], ["b"]]) == EventLog([["b"], ["a"]])

    def test_multiplicity_sensitive(self):
        assert EventLog([["a"], ["a"]]) != EventLog([["a"]])


class TestDerivedViews:
    def test_activities(self):
        log = EventLog([["a", "b"], ["b", "c"]])
        assert log.activities() == frozenset({"a", "b", "c"})

    def test_activity_trace_counts_count_traces_not_occurrences(self):
        log = EventLog([["a", "a", "b"], ["b"]])
        counts = log.activity_trace_counts()
        assert counts["a"] == 1
        assert counts["b"] == 2

    def test_pair_trace_counts_once_per_trace(self):
        log = EventLog([["a", "b", "a", "b"], ["a", "b"]])
        assert log.pair_trace_counts()[("a", "b")] == 2


class TestTransformations:
    def test_relabel(self):
        log = EventLog([["a", "b"]]).relabel({"a": "x"})
        assert log.activities() == frozenset({"x", "b"})

    def test_merge_composite(self):
        log = EventLog([["a", "b", "c"], ["c"]]).rewrite_variants(
            {("a", "b", "c"): ("ab", "c")},
            lambda trace: trace.replace_run(("a", "b"), "ab"),
        )
        assert [trace.activities for trace in log] == [("ab", "c"), ("c",)]

    def test_map_traces_drops_empty(self):
        log = EventLog([["a", "b"], ["a"]])
        result = log.map_traces(lambda trace: trace.drop_prefix(1))
        assert len(result) == 1

    def test_filter_traces(self):
        log = EventLog([["a"], ["b"]])
        kept = log.filter_traces(lambda trace: trace.activities == ("a",))
        assert len(kept) == 1

    def test_transformations_do_not_mutate_original(self):
        log = EventLog([["a", "b"]], name="orig")
        log.relabel({"a": "x"})
        assert log.activities() == frozenset({"a", "b"})
