"""Tests for correspondence selection: the tail every EMS match ends in.

A finished similarity matrix becomes correspondences by a maximum-weight
assignment, a strict ``> threshold`` filter and the expansion of matched
nodes into their member activities.  ``EMSMatcher.outcome_from_result``
runs exactly that tail on a given matrix.
"""

import numpy as np
import pytest

from repro.baselines.common import Evaluation, pairs_to_outcome
from repro.core.ems import EMSResult
from repro.core.matrix import SimilarityMatrix
from repro.matchers import EMSMatcher


def select(matrix: SimilarityMatrix, threshold: float = 0.0):
    result = EMSResult(matrix, iterations=0, pair_updates=0, converged=True, estimated=False)
    return EMSMatcher(threshold=threshold).outcome_from_result(result).correspondences


def pairs(correspondences) -> set[tuple[str, str]]:
    return {(min(c.left), min(c.right)) for c in correspondences}


@pytest.fixture()
def matrix() -> SimilarityMatrix:
    return SimilarityMatrix(
        ["a", "b"], ["x", "y"], np.array([[0.9, 0.2], [0.3, 0.8]])
    )


class TestSelectPairs:
    def test_maximum_total(self, matrix):
        assert pairs(select(matrix)) == {("a", "x"), ("b", "y")}

    def test_threshold_filters(self, matrix):
        assert pairs(select(matrix, threshold=0.85)) == {("a", "x")}

    def test_zero_similarity_dropped_by_default(self):
        matrix = SimilarityMatrix(["a"], ["x", "y"], np.array([[0.0, 0.0]]))
        assert select(matrix) == ()

    def test_assignment_beats_greedy(self):
        # Greedy row-max would pick (a, x) then leave b with 0.1; the
        # assignment picks the globally better cross pairing.
        matrix = SimilarityMatrix(
            ["a", "b"], ["x", "y"], np.array([[0.9, 0.8], [0.85, 0.1]])
        )
        assert pairs(select(matrix)) == {("a", "y"), ("b", "x")}


class TestCorrespondences:
    def test_member_expansion(self):
        evaluation = Evaluation(objective=0.85, pairs=(("a", "x"), ("b", "y")))
        members_left = {"a": frozenset({"a1", "a2"})}
        outcome = pairs_to_outcome(evaluation, members_left, {})
        by_right = {min(c.right): c for c in outcome.correspondences}
        assert by_right["x"].left == frozenset({"a1", "a2"})
        assert by_right["y"].left == frozenset({"b"})

    def test_one_call_pipeline(self, matrix):
        correspondences = select(matrix, threshold=0.5)
        assert len(correspondences) == 2
        assert all(len(c.left) == 1 for c in correspondences)
