"""Property-based differential suite: incremental vs cold composite search.

The incremental engine (delta graph merges + warm-started fixpoints) is
an optimisation, not an approximation: on any input the default
production search must reproduce the cold-started search of the
full-rebuild oracle (``tests/composite_oracle.py``) — the same merge
trajectory, the same scores (within 1e-12; the parity is by
construction, so in practice bit-identical) and the same stats —
including when a :class:`MatchBudget` runs out mid-round.  Both run the
one schedule of Algorithm 2: candidates in discovery order under Uc and
Bd, so a budget that never runs out changes nothing either.
"""

import random as random_module

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.composite import CompositeMatcher
from repro.core.config import EMSConfig
from repro.logs.log import EventLog
from repro.runtime import MatchBudget
from tests.composite_oracle import ColdCompositeMatcher
from tests.count_oracle import duplicated_log

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def random_log(seed: int, alphabet: str = "abcdef") -> EventLog:
    rng = random_module.Random(seed)
    traces = []
    for _ in range(rng.randint(2, 8)):
        length = rng.randint(1, 6)
        traces.append([rng.choice(alphabet) for _ in range(length)])
    return EventLog(traces, name=f"rand-{seed}")


def matcher(incremental: bool, **kwargs) -> CompositeMatcher:
    # The cold side runs the production loop on the full-rebuild oracle.
    defaults = dict(delta=0.0, min_confidence=0.8, max_run_length=3)
    defaults.update(kwargs)
    cls = CompositeMatcher if incremental else ColdCompositeMatcher
    return cls(EMSConfig(), **defaults)


def assert_same_search(cold, warm):
    assert cold.accepted_first == warm.accepted_first
    assert cold.accepted_second == warm.accepted_second
    assert cold.matrix.rows == warm.matrix.rows
    assert cold.matrix.cols == warm.matrix.cols
    assert np.allclose(cold.matrix.values, warm.matrix.values, rtol=0, atol=1e-12)
    assert abs(cold.average - warm.average) <= 1e-12
    assert cold.members_first == warm.members_first
    assert cold.members_second == warm.members_second
    assert cold.stats == warm.stats


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
# Near-ties the Bd abort once broke by evaluation order: an exact tie
# (568) and averages one ulp apart (the second pair).
@example(568, 568)
@example(1442023555, 1704182386)
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
def test_duplicate_heavy_searches_identical(seed_first, seed_second):
    # ``random_log`` rarely repeats a trace; these logs repeat every
    # variant, so the delta counts move by multiplicities above 1.
    log_first = duplicated_log(seed_first)
    log_second = duplicated_log(seed_second, alphabet="uvwxyz")
    cold = matcher(incremental=False).match(log_first, log_second)
    warm = matcher(incremental=True).match(log_first, log_second)
    assert_same_search(cold, warm)


@given(seeds, seeds, st.sampled_from([0.0, 0.005, 0.05]))
@settings(max_examples=15, deadline=None)
def test_delta_thresholds_identical(seed_first, seed_second, delta):
    log_first = random_log(seed_first)
    log_second = random_log(seed_second)
    cold = matcher(incremental=False, delta=delta).match(log_first, log_second)
    warm = matcher(incremental=True, delta=delta).match(log_first, log_second)
    assert_same_search(cold, warm)


@given(seeds, seeds)
@settings(max_examples=15, deadline=None)
def test_ample_budget_changes_nothing(seed_first, seed_second):
    # A budget that never runs out must not change the schedule: same
    # candidates evaluated in the same order, so identical stats.
    log_first = random_log(seed_first)
    log_second = random_log(seed_second)
    unbudgeted = matcher(incremental=True).match(log_first, log_second)
    budgeted = matcher(
        incremental=True, budget=MatchBudget(max_pair_updates=10**12)
    ).match(log_first, log_second)
    assert budgeted.runtime is not None and not budgeted.runtime.degraded
    assert_same_search(unbudgeted, budgeted)


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
