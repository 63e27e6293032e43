"""Tests for the EMS engine, pinned to the paper's worked examples.

The Figure 1 fixture reproduces the frequencies of Figure 2, so the
paper's Examples 4, 6 and 7 provide exact expected values.
"""

import numpy as np
import pytest

from repro.core.config import EMSConfig
from repro.core.ems import EMSEngine, edge_agreement, iteration_trace
from repro.graph.dependency import DependencyGraph
from repro.logs.log import EventLog
from repro.similarity.labels import ExactSimilarity
from tests.ems_oracle import fixed_pairs_start

FORWARD = EMSConfig(alpha=1.0, c=0.8, direction="forward")


class TestEdgeAgreement:
    def test_equal_weights_give_c(self):
        result = edge_agreement(np.array([0.4]), np.array([0.4]), 0.8)
        assert result[0, 0] == pytest.approx(0.8)

    def test_example4_value(self):
        # C(v1X, A, v2X, 1) with f = 0.4 vs 1.0 -> 0.8 * (1 - 0.6/1.4).
        result = edge_agreement(np.array([0.4]), np.array([1.0]), 0.8)
        assert result[0, 0] == pytest.approx(0.45714, abs=1e-4)

    def test_outer_shape(self):
        result = edge_agreement(np.array([0.1, 0.2]), np.array([0.3, 0.4, 0.5]), 0.8)
        assert result.shape == (2, 3)


class TestPaperExample4:
    def test_first_iteration(self, fig1_graphs):
        snapshot = iteration_trace(*fig1_graphs, FORWARD, iterations=1)[0]
        assert snapshot.get("A", "1") == pytest.approx(0.457, abs=1e-3)
        assert snapshot.get("A", "2") == pytest.approx(0.6, abs=1e-3)

    def test_dislocated_pair_wins(self, fig1_graphs):
        """The core claim: A matches its dislocated counterpart 2, not 1."""
        result = EMSEngine(FORWARD).similarity(*fig1_graphs)
        assert result.matrix.get("A", "2") > result.matrix.get("A", "1")

    def test_exact_c4_value(self, fig1_graphs):
        # Example 6: the exact value of S(C, 4) is 0.587.
        result = EMSEngine(FORWARD).similarity(*fig1_graphs)
        assert result.matrix.get("C", "4") == pytest.approx(0.587, abs=1e-3)


class TestPaperExample7:
    def test_average_similarity(self, fig1_graphs):
        # avg(S) = 0.502 with the combined-direction similarity.
        result = EMSEngine(EMSConfig()).similarity(*fig1_graphs)
        assert result.matrix.average() == pytest.approx(0.502, abs=2e-3)


class TestConvergence:
    def test_monotone_nondecreasing_iterations(self, fig1_graphs):
        snapshots = iteration_trace(*fig1_graphs, FORWARD, iterations=6)
        for earlier, later in zip(snapshots, snapshots[1:]):
            for row, col, value in later.pairs():
                assert value >= earlier.get(row, col) - 1e-12

    def test_values_bounded(self, fig1_graphs):
        result = EMSEngine(EMSConfig()).similarity(*fig1_graphs)
        values = result.matrix.values
        assert values.min() >= 0.0
        assert values.max() <= 1.0

    def test_converged_flag(self, fig1_graphs):
        result = EMSEngine(EMSConfig()).similarity(*fig1_graphs)
        assert result.converged

    def test_pruned_equals_unpruned(self, fig1_graphs):
        """Proposition 2: skipping converged pairs changes nothing."""
        pruned = EMSEngine(EMSConfig(use_pruning=True)).similarity(*fig1_graphs)
        unpruned = EMSEngine(EMSConfig(use_pruning=False)).similarity(*fig1_graphs)
        np.testing.assert_allclose(
            pruned.matrix.values, unpruned.matrix.values, atol=1e-3
        )

    def test_pruning_reduces_updates(self, fig1_graphs):
        pruned = EMSEngine(EMSConfig(use_pruning=True)).similarity(*fig1_graphs)
        unpruned = EMSEngine(EMSConfig(use_pruning=False)).similarity(*fig1_graphs)
        assert pruned.pair_updates < unpruned.pair_updates

    def test_unique_fixed_point_from_extra_iterations(self, fig1_graphs):
        """Theorem 1 uniqueness: tighter epsilon converges to the same limit."""
        loose = EMSEngine(EMSConfig(epsilon=1e-3)).similarity(*fig1_graphs)
        tight = EMSEngine(EMSConfig(epsilon=1e-10, max_iterations=500)).similarity(
            *fig1_graphs
        )
        np.testing.assert_allclose(
            loose.matrix.values, tight.matrix.values, atol=5e-3
        )


class TestDirections:
    def test_backward_is_forward_on_reversed(self, fig1_graphs):
        graph_first, graph_second = fig1_graphs
        backward = EMSEngine(EMSConfig(direction="backward")).similarity(
            graph_first, graph_second
        )
        forward_on_reversed = EMSEngine(EMSConfig(direction="forward")).similarity(
            graph_first.reversed(), graph_second.reversed()
        )
        np.testing.assert_allclose(
            backward.matrix.values, forward_on_reversed.matrix.values, atol=1e-9
        )

    def test_both_is_average(self, fig1_graphs):
        forward = EMSEngine(EMSConfig(direction="forward")).similarity(*fig1_graphs)
        backward = EMSEngine(EMSConfig(direction="backward")).similarity(*fig1_graphs)
        both = EMSEngine(EMSConfig(direction="both")).similarity(*fig1_graphs)
        np.testing.assert_allclose(
            both.matrix.values,
            (forward.matrix.values + backward.matrix.values) / 2.0,
            atol=1e-9,
        )

    def test_directional_matrices_exposed(self, fig1_graphs):
        result = EMSEngine(EMSConfig(direction="both")).similarity(*fig1_graphs)
        assert set(result.directional) == {"forward", "backward"}


class TestLabelIntegration:
    def test_alpha_zero_is_pure_label_similarity(self, fig1_graphs):
        engine = EMSEngine(EMSConfig(alpha=0.0), ExactSimilarity())
        log_pair = (
            DependencyGraph.from_log(EventLog([["a", "b"]] * 3)),
            DependencyGraph.from_log(EventLog([["a", "c"]] * 3)),
        )
        result = engine.similarity(*log_pair)
        assert result.matrix.get("a", "a") == pytest.approx(1.0)
        assert result.matrix.get("b", "c") == pytest.approx(0.0)

    def test_label_similarity_raises_matching_pairs(self, fig1_graphs):
        structural = EMSEngine(EMSConfig(alpha=1.0)).similarity(*fig1_graphs)
        # Exact similarity can only help pairs with equal labels; none are
        # equal across the letter/digit vocabularies, so everything drops.
        blended = EMSEngine(EMSConfig(alpha=0.5), ExactSimilarity()).similarity(
            *fig1_graphs
        )
        assert blended.matrix.average() < structural.matrix.average()


class TestFixedPairs:
    def test_fixed_pairs_not_updated(self, fig1_graphs):
        engine = EMSEngine(FORWARD)
        fixed = fixed_pairs_start(*fig1_graphs, {("A", "1"): 0.123})
        result = engine.similarity(*fig1_graphs, fixed_forward=fixed)
        assert result.matrix.get("A", "1") == pytest.approx(0.123)

    def test_seeding_converged_values_preserves_result(self, fig1_graphs):
        """Proposition 4 mechanism: seeding true values is a no-op."""
        engine = EMSEngine(FORWARD)
        base = engine.similarity(*fig1_graphs)
        fixed = fixed_pairs_start(*fig1_graphs, {
            (row, col): base.matrix.get(row, col)
            for row in base.matrix.rows
            for col in base.matrix.cols
            if row in ("A", "B")
        })
        seeded = engine.similarity(*fig1_graphs, fixed_forward=fixed)
        np.testing.assert_allclose(
            seeded.matrix.values, base.matrix.values, atol=1e-3
        )


class TestAbort:
    def test_abort_on_impossible_target(self, fig1_graphs):
        engine = EMSEngine(EMSConfig())
        assert engine.similarity(*fig1_graphs, abort_below=0.999).aborted

    def test_no_abort_on_achievable_target(self, fig1_graphs):
        engine = EMSEngine(EMSConfig())
        result = engine.similarity(*fig1_graphs, abort_below=0.1)
        assert not result.aborted
        reference = engine.similarity(*fig1_graphs)
        np.testing.assert_allclose(
            result.matrix.values, reference.matrix.values, atol=1e-9
        )


class TestEdgeWeightAblation:
    def test_constant_decay_loses_the_dislocated_match(self, fig1_graphs):
        """Without the C factor, A prefers the wrong partner 1 — the
        frequency agreement is what pushed A toward its true dislocated
        counterpart 2 in Example 4."""
        config = FORWARD.with_(use_edge_weights=False)
        snapshot = iteration_trace(*fig1_graphs, config, iterations=1)[0]
        assert snapshot.get("A", "1") > snapshot.get("A", "2")
        with_weights = iteration_trace(*fig1_graphs, FORWARD, iterations=1)[0]
        assert with_weights.get("A", "2") > with_weights.get("A", "1")

    def test_with_weights_differs_from_without(self, fig1_graphs):
        with_weights = EMSEngine(EMSConfig()).similarity(*fig1_graphs)
        without = EMSEngine(EMSConfig(use_edge_weights=False)).similarity(*fig1_graphs)
        assert with_weights.matrix.values.tolist() != without.matrix.values.tolist()

    def test_ablated_estimation_consistent(self, fig1_graphs):
        config = EMSConfig(use_edge_weights=False, estimation_iterations=0)
        result = EMSEngine(config).similarity(*fig1_graphs)
        values = result.matrix.values
        assert (values >= 0.0).all()
        assert (values <= 1.0).all()


class TestPairSimilarityHelper:
    def test_matches_matrix(self, fig1_graphs):
        matrix = EMSEngine(FORWARD).similarity(*fig1_graphs).matrix
        value = matrix.get("C", "4")
        assert value == matrix.values[matrix.rows.index("C"), matrix.cols.index("4")]
