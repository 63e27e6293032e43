"""Tests for composite-event merging."""

import pytest

from repro.exceptions import GraphError
from repro.graph.dependency import DependencyGraph
from repro.graph.merge import composite_name, expand_members, merge_runs
from repro.logs.log import EventLog


class TestNaming:
    def test_composite_name_preserves_order(self):
        assert composite_name(("C", "D")) == "⟨C+D⟩"

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            composite_name(())

    def test_expand_members_flattens_nested(self):
        members = {"⟨a+b⟩": frozenset({"a", "b"})}
        assert expand_members(("⟨a+b⟩", "c"), members) == frozenset({"a", "b", "c"})


class TestMergeRun:
    def test_merge_rewrites_traces(self, fig1_logs):
        merged, members = merge_runs(fig1_logs[0], [("C", "D")])
        assert all("C" not in trace.activities for trace in merged)
        assert members["⟨C+D⟩"] == frozenset({"C", "D"})
        assert members["A"] == frozenset({"A"})

    def test_merge_requires_two_members(self, fig1_logs):
        with pytest.raises(GraphError):
            merge_runs(fig1_logs[0], [("C",)])

    def test_merge_rejects_repeats(self, fig1_logs):
        with pytest.raises(GraphError):
            merge_runs(fig1_logs[0], [("C", "C")])

    def test_nested_merge_unions_members(self):
        log = EventLog([["a", "b", "c"]] * 3)
        merged, members = merge_runs(log, [("a", "b"), ("⟨a+b⟩", "c")])
        assert members["⟨⟨a+b⟩+c⟩"] == frozenset({"a", "b", "c"})
        assert merged.traces[0].activities == ("⟨⟨a+b⟩+c⟩",)


class TestMergedGraph:
    def test_merged_graph_frequencies(self, fig1_logs):
        merged, members = merge_runs(fig1_logs[0], [("C", "D")])
        graph = DependencyGraph.from_log(merged, members=members)
        name = composite_name(("C", "D"))
        assert graph.frequency(name) == pytest.approx(1.0)
        assert graph.edge_frequency("A", name) == pytest.approx(0.4)
        assert graph.members(name) == frozenset({"C", "D"})

    def test_noncontiguous_occurrences_unmerged(self):
        log = EventLog([["a", "x", "b"], ["a", "b"]])
        merged, _ = merge_runs(log, [("a", "b")])
        assert merged.traces[0].activities == ("a", "x", "b")
        assert merged.traces[1].activities == ("⟨a+b⟩",)
