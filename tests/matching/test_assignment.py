"""Tests for the from-scratch Hungarian algorithm."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.matching import assignment
from repro.matching.assignment import (
    assignment_weight,
    max_weight_assignment,
    min_cost_assignment,
)
from tests.hungarian_oracle import hungarian_min


class TestMaxWeight:
    def test_identity_optimal(self):
        weights = np.eye(3)
        assert max_weight_assignment(weights) == [(0, 0), (1, 1), (2, 2)]

    def test_antidiagonal(self):
        weights = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert max_weight_assignment(weights) == [(0, 1), (1, 0)]

    def test_rectangular_wide(self):
        weights = np.array([[0.1, 0.9, 0.2], [0.8, 0.1, 0.3]])
        assignment = max_weight_assignment(weights)
        assert assignment == [(0, 1), (1, 0)]

    def test_rectangular_tall(self):
        weights = np.array([[0.1, 0.9, 0.2], [0.8, 0.1, 0.3]]).T
        assignment = max_weight_assignment(weights)
        assert assignment == [(0, 1), (1, 0)]

    def test_negative_weights_supported(self):
        weights = np.array([[-5.0, -1.0], [-1.0, -5.0]])
        assert max_weight_assignment(weights) == [(0, 1), (1, 0)]

    def test_empty(self):
        assert max_weight_assignment(np.zeros((0, 0))) == []

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError):
            max_weight_assignment(np.zeros(3))

    def test_classic_instance_against_bruteforce(self):
        from itertools import permutations

        cost = np.array([[90, 75, 75, 80],
                         [35, 85, 55, 65],
                         [125, 95, 90, 105],
                         [45, 110, 95, 115]], dtype=float)
        assignment = min_cost_assignment(cost)
        total = sum(cost[i, j] for i, j in assignment)
        best = min(
            sum(cost[i, p[i]] for i in range(4)) for p in permutations(range(4))
        )
        assert total == pytest.approx(best)


class TestAgainstScipy:
    scipy = pytest.importorskip("scipy.optimize")

    def test_random_square_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            size = rng.integers(1, 9)
            weights = rng.random((size, size))
            ours = max_weight_assignment(weights)
            rows, cols = self.scipy.linear_sum_assignment(weights, maximize=True)
            assert assignment_weight(weights, ours) == pytest.approx(
                float(weights[rows, cols].sum())
            )

    def test_random_rectangular_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            shape = (int(rng.integers(1, 8)), int(rng.integers(1, 8)))
            weights = rng.random(shape)
            ours = max_weight_assignment(weights)
            rows, cols = self.scipy.linear_sum_assignment(weights, maximize=True)
            assert assignment_weight(weights, ours) == pytest.approx(
                float(weights[rows, cols].sum())
            )
            # Injectivity on both sides.
            assert len({i for i, _ in ours}) == len(ours)
            assert len({j for _, j in ours}) == len(ours)

    def test_min_cost_against_scipy(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            cost = rng.random((6, 6)) * 10
            ours = min_cost_assignment(cost)
            rows, cols = self.scipy.linear_sum_assignment(cost)
            assert sum(cost[i, j] for i, j in ours) == pytest.approx(
                float(cost[rows, cols].sum())
            )


#: Rectangular matrices of 1-12 rows and columns with values 0-2, so most
#: rows hold exact ties and the tie-break decides the assignment.
tied_matrices = st.integers(min_value=1, max_value=12).flatmap(
    lambda rows: st.integers(min_value=1, max_value=12).flatmap(
        lambda cols: arrays(
            dtype=np.float64,
            shape=(rows, cols),
            elements=st.integers(min_value=0, max_value=2).map(float),
        )
    )
)


def oracle_max_weight(weights: np.ndarray) -> list[tuple[int, int]]:
    """``max_weight_assignment`` with the loop oracle as its solver."""
    with mock.patch.object(assignment, "_hungarian_min", hungarian_min):
        return max_weight_assignment(weights)


class TestAgainstLoopOracle:
    """The array-op row scan must pick the assignment the loop picks."""

    @given(tied_matrices)
    @settings(max_examples=200, deadline=None)
    def test_tied_rectangular_matrices(self, weights):
        assert max_weight_assignment(weights) == oracle_max_weight(weights)
        cost = weights.T if weights.shape[0] > weights.shape[1] else weights
        assert assignment._hungarian_min(cost) == hungarian_min(cost)

    @pytest.mark.parametrize("size", [60, 73, 100])
    @pytest.mark.parametrize("ties", [False, True])
    def test_large_square_matrices(self, size, ties):
        weights = np.random.default_rng(size).random((size, size))
        if ties:
            weights = np.round(weights * 4) / 4
        assert max_weight_assignment(weights) == oracle_max_weight(weights)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cost_rejected(self, bad):
        cost = np.ones((3, 3))
        cost[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            min_cost_assignment(cost)
