"""Small-surface tests: reprs, accessors and convenience properties.

These are the odds and ends the bigger suites route around — kept
honest here so the printable/diagnostic surface does not rot.
"""

import pytest

from repro.core.config import EMSConfig
from repro.core.ems import EMSEngine
from repro.graph.dependency import DependencyGraph
from repro.logs.log import EventLog
from repro.logs.streaming import OnlineStatistics


class TestReprs:
    def test_event_log_repr(self):
        log = EventLog([["a", "b"]], name="demo")
        assert "demo" in repr(log)
        assert "traces=1" in repr(log)

    def test_trace_repr_includes_case(self):
        from repro.logs.events import Trace

        assert "case_id='k'" in repr(Trace(["a"], case_id="k"))

    def test_graph_repr(self, fig1_graphs):
        assert "nodes=6" in repr(fig1_graphs[0])

    def test_online_statistics_repr(self):
        online = OnlineStatistics()
        online.add_trace(["a"])
        rendered = repr(online)
        assert "traces=1" in rendered
        assert "activities=1" in rendered

    def test_matcher_reprs(self):
        from repro.baselines import BHVMatcher, GEDMatcher

        assert "GED" in repr(GEDMatcher())
        assert "BHV" in repr(BHVMatcher())

    def test_similarity_reprs(self):
        from repro.similarity import OpaqueSimilarity, QGramCosineSimilarity

        assert repr(OpaqueSimilarity()) == "OpaqueSimilarity()"
        assert "q=3" in repr(QGramCosineSimilarity())


class TestConvenienceAccessors:
    def test_ems_result_average(self, fig1_graphs):
        result = EMSEngine(EMSConfig()).similarity(*fig1_graphs)
        assert result.average == pytest.approx(result.matrix.average())

    def test_member_map_is_copy(self, fig1_graphs):
        members = fig1_graphs[0].member_map()
        members["A"] = frozenset({"tampered"})
        assert fig1_graphs[0].members("A") == frozenset({"A"})

    def test_log_pair_activity_count(self):
        from repro.matching.evaluation import Correspondence
        from repro.synthesis.corpus import LogPair

        pair = LogPair(
            "p", "area", "DS-B",
            EventLog([["a", "b"]]),
            EventLog([["x", "y", "z"]]),
            (Correspondence.one_to_one("a", "x"),),
        )
        assert pair.activity_count == 3

    def test_aggregate_finished_all(self):
        from repro.experiments.harness import Aggregate

        clean = Aggregate("m", 1.0, 1.0, 1.0, 0.1, 3, 0)
        dirty = Aggregate("m", 1.0, 1.0, 1.0, 0.1, 3, 1)
        assert clean.finished_all
        assert not dirty.finished_all

    def test_correspondence_repr(self):
        from repro.matching.evaluation import Correspondence

        rendered = repr(Correspondence(frozenset({"c", "d"}), frozenset({"4"})))
        assert "c+d" in rendered.lower()
        assert "4" in rendered


class TestDefensiveValidation:
    def test_matrix_repr(self, fig1_graphs):
        result = EMSEngine(EMSConfig()).similarity(*fig1_graphs)
        assert "6 x 6" in repr(result.matrix)

    def test_dependency_graph_average_degree_positive(self, fig1_graphs):
        assert fig1_graphs[0].average_degree() > 2.0  # artificial edges alone give 2

    def test_estimation_report_str(self, fig1_graphs):
        from repro.core.analysis import estimation_error

        (report,) = estimation_error(*fig1_graphs, budgets=(2,))
        assert "rmse" in str(report)
