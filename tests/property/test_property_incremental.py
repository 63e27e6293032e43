"""Property-based differential suite: incremental vs cold composite search.

The incremental engine (delta graph merges + warm-started fixpoints +
estimation screening) is an optimisation, not an approximation: on any
input the warm-started search must reproduce the cold-started search of
the full-rebuild oracle (``tests/composite_oracle.py``) — the same merge
trajectory, the same scores (within 1e-12; the parity is by
construction, so in practice bit-identical), the same ``pairs_fixed`` —
including when a :class:`MatchBudget` runs out mid-round.
"""

import random as random_module

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.composite import CompositeMatcher
from repro.core.config import EMSConfig
from repro.logs.log import EventLog
from repro.runtime import MatchBudget
from tests.composite_oracle import ColdCompositeMatcher

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def random_log(seed: int, alphabet: str = "abcdef") -> EventLog:
    rng = random_module.Random(seed)
    traces = []
    for _ in range(rng.randint(2, 8)):
        length = rng.randint(1, 6)
        traces.append([rng.choice(alphabet) for _ in range(length)])
    return EventLog(traces, name=f"rand-{seed}")


#: A budget that never runs out.  This suite asserts *exact* stat parity
#: (pair_updates, evaluations_aborted) between warm and cold, which only
#: holds when both scan candidates in the same static order.  Budgeted
#: runs keep the static, unscreened order; best-first reordering changes
#: the Bd-abort incumbent trajectory (same selection, different counters)
#: and has its own differential suite in test_property_best_first.py.
UNLIMITED = MatchBudget(max_pair_updates=10**12)


def matcher(incremental: bool, screening: bool = False, **kwargs) -> CompositeMatcher:
    # The cold side runs the production loop on the full-rebuild oracle.
    # Without *screening*, both sides run under UNLIMITED and so keep the
    # static, unscreened order; with it, the warm side runs the default
    # unbudgeted schedule (best-first order plus estimation screening).
    defaults = dict(delta=0.0, min_confidence=0.8, max_run_length=3)
    if not screening:
        defaults["budget"] = UNLIMITED
    defaults.update(kwargs)
    cls = CompositeMatcher if incremental else ColdCompositeMatcher
    return cls(EMSConfig(), **defaults)


def assert_same_search(cold, warm, *, compare_stats: bool = True):
    assert cold.accepted_first == warm.accepted_first
    assert cold.accepted_second == warm.accepted_second
    assert cold.matrix.rows == warm.matrix.rows
    assert cold.matrix.cols == warm.matrix.cols
    assert np.allclose(cold.matrix.values, warm.matrix.values, rtol=0, atol=1e-12)
    assert abs(cold.average - warm.average) <= 1e-12
    assert cold.members_first == warm.members_first
    assert cold.members_second == warm.members_second
    if compare_stats:
        assert cold.stats.rounds == warm.stats.rounds
        assert cold.stats.candidates_evaluated == warm.stats.candidates_evaluated
        assert cold.stats.evaluations_aborted == warm.stats.evaluations_aborted
        assert cold.stats.pair_updates == warm.stats.pair_updates
        assert cold.stats.pairs_fixed == warm.stats.pairs_fixed


@given(seeds, seeds)
@settings(max_examples=20, deadline=None)
def test_warm_and_cold_searches_identical(seed_first, seed_second):
    log_first = random_log(seed_first)
    log_second = random_log(seed_second, alphabet="uvwxyz")
    cold = matcher(incremental=False).match(log_first, log_second)
    warm = matcher(incremental=True).match(log_first, log_second)
    assert_same_search(cold, warm)


@given(seeds, seeds)
@settings(max_examples=15, deadline=None)
def test_shared_alphabet_searches_identical(seed_first, seed_second):
    # Overlapping vocabularies give the label-free structural similarity
    # more high-scoring candidates, exercising deeper merge trajectories.
    log_first = random_log(seed_first)
    log_second = random_log(seed_second)
    cold = matcher(incremental=False).match(log_first, log_second)
    warm = matcher(incremental=True).match(log_first, log_second)
    assert_same_search(cold, warm)


@given(seeds, seeds)
@settings(max_examples=15, deadline=None)
def test_screening_preserves_trajectory_and_scores(seed_first, seed_second):
    log_first = random_log(seed_first)
    log_second = random_log(seed_second)
    cold = matcher(incremental=False).match(log_first, log_second)
    screened = matcher(incremental=True, screening=True).match(log_first, log_second)
    # Screening may skip evaluations (so evaluation counters can differ),
    # but never a candidate that could have won: trajectory and scores match.
    assert_same_search(cold, screened, compare_stats=False)
    assert screened.stats.candidates_screened <= screened.stats.screen_checks
    assert cold.stats.candidates_evaluated >= screened.stats.candidates_evaluated


@given(seeds, seeds, st.integers(min_value=1, max_value=2000))
@settings(max_examples=20, deadline=None)
def test_budget_exhaustion_mid_round_identical(seed_first, seed_second, cap):
    log_first = random_log(seed_first)
    log_second = random_log(seed_second)
    cold = matcher(incremental=False, budget=MatchBudget(max_pair_updates=cap)).match(
        log_first, log_second
    )
    warm = matcher(incremental=True, budget=MatchBudget(max_pair_updates=cap)).match(
        log_first, log_second
    )
    assert_same_search(cold, warm)
    assert cold.runtime is not None and warm.runtime is not None
    assert cold.runtime.stage == warm.runtime.stage
    assert cold.runtime.reason == warm.runtime.reason
    assert cold.runtime.degraded == warm.runtime.degraded


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_unchanged_pruning_off_still_identical(seed):
    log_first = random_log(seed)
    log_second = random_log(seed + 7)
    cold = matcher(incremental=False, use_unchanged=False).match(log_first, log_second)
    warm = matcher(incremental=True, use_unchanged=False).match(log_first, log_second)
    assert_same_search(cold, warm)


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_bounds_off_still_identical(seed):
    log_first = random_log(seed)
    log_second = random_log(seed + 13)
    cold = matcher(incremental=False, use_bounds=False).match(log_first, log_second)
    warm = matcher(incremental=True, use_bounds=False).match(log_first, log_second)
    assert_same_search(cold, warm)
