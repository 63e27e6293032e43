"""Micro-benchmarks of the substrate layers.

Footprint computation and similarity flooding: the FPT and SFL
baselines of the ``ext-baselines`` comparison.  Regressions here slow
that experiment down.
"""

import random

import pytest

from repro.baselines.flooding import FloodingMatcher
from repro.logs.footprint import compute_footprint
from repro.synthesis.generator import ACYCLIC_PROFILE, random_process_tree
from repro.synthesis.playout import play_out


@pytest.fixture(scope="module")
def tree():
    return random_process_tree(
        [f"a{i}" for i in range(12)], random.Random(3), ACYCLIC_PROFILE
    )


@pytest.fixture(scope="module")
def log(tree):
    return play_out(tree, 200, random.Random(5), with_timestamps=False)


def test_footprint(benchmark, log):
    footprint = benchmark(compute_footprint, log)
    assert len(footprint.activities) == 12


def test_similarity_flooding(benchmark, log):
    matcher = FloodingMatcher()
    outcome = benchmark(matcher.match, log, log)
    assert outcome.correspondences
