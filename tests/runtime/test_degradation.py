"""The degradation ladder: every rung reachable, exact mode untouched."""

import numpy as np
import pytest

from repro.core.composite import CompositeMatcher
from repro.core.config import EMSConfig
from repro.core.ems import EMSEngine
from repro.exceptions import BudgetExhausted
from repro.graph.dependency import DependencyGraph
from repro.matchers import EMSCompositeMatcher, EMSMatcher
from repro.runtime import DegradationPolicy, FaultPlan, FaultSpec, MatchBudget


def graphs(pair):
    return DependencyGraph.from_log(pair[0]), DependencyGraph.from_log(pair[1])


class TestEngineResilience:
    def test_exact_stage_within_budget(self, small_pair):
        first, second = graphs(small_pair)
        engine = EMSEngine(EMSConfig())
        meter = MatchBudget(deadline=120.0).start()
        result = engine.similarity(
            first, second, meter=meter, degradation=DegradationPolicy()
        )
        assert result.stage == "exact"
        assert result.reason is None
        assert result.converged

    def test_metered_run_is_bit_identical_to_unmetered(self, adversarial_pair):
        first, second = graphs(adversarial_pair)
        engine = EMSEngine(EMSConfig())
        plain = engine.similarity(first, second)
        metered = engine.similarity(
            first, second, meter=MatchBudget(deadline=300.0).start(),
            degradation=DegradationPolicy(),
        )
        assert metered.stage == "exact"
        assert np.array_equal(plain.matrix.values, metered.matrix.values)
        assert plain.pair_updates == metered.pair_updates

    def test_estimated_stage_on_pair_budget(self, adversarial_pair):
        first, second = graphs(adversarial_pair)
        engine = EMSEngine(EMSConfig())
        meter = MatchBudget(max_pair_updates=50).start()
        result = engine.similarity(
            first, second, meter=meter, degradation=DegradationPolicy()
        )
        assert result.stage == "estimated"
        assert result.reason == "pair-updates"
        assert result.estimated
        assert np.all(result.matrix.values >= 0.0)
        assert np.all(result.matrix.values <= 1.0)

    def test_partial_stage_when_estimation_disallowed(self, adversarial_pair):
        first, second = graphs(adversarial_pair)
        engine = EMSEngine(EMSConfig())
        meter = MatchBudget(max_pair_updates=50).start()
        result = engine.similarity(
            first, second, meter=meter, degradation=DegradationPolicy.partial_only()
        )
        assert result.stage == "partial"
        assert result.reason == "pair-updates"
        assert not result.converged
        assert result.matrix.values.shape == (
            len(first.nodes), len(second.nodes)
        )

    def test_ladder_disabled_raises(self, adversarial_pair):
        first, second = graphs(adversarial_pair)
        engine = EMSEngine(EMSConfig())
        meter = MatchBudget(max_pair_updates=50).start()
        with pytest.raises(BudgetExhausted):
            engine.similarity(
                first, second, meter=meter, degradation=DegradationPolicy.none()
            )


class TestMatcherResilience:
    def test_no_budget_reports_exact(self, small_pair):
        outcome = EMSMatcher().match(*small_pair)
        assert outcome.runtime is not None
        assert outcome.runtime.stage == "exact"
        assert not outcome.runtime.degraded

    def test_no_budget_objective_matches_generous_budget(self, small_pair):
        plain = EMSMatcher().match(*small_pair)
        budgeted = EMSMatcher(budget=MatchBudget(deadline=300.0)).match(*small_pair)
        assert plain.objective == budgeted.objective
        assert plain.correspondences == budgeted.correspondences

    def test_exhausted_deadline_still_returns_outcome(self, small_pair):
        outcome = EMSMatcher(budget=MatchBudget(deadline=0.0)).match(*small_pair)
        assert outcome.runtime.degraded
        assert outcome.runtime.stage == "estimated"
        assert outcome.runtime.reason == "deadline"
        assert 0.0 <= outcome.objective <= 1.0

    def test_pair_budget_partial(self, small_pair):
        outcome = EMSMatcher(
            budget=MatchBudget(max_pair_updates=5),
            degradation=DegradationPolicy.partial_only(),
        ).match(*small_pair)
        assert outcome.runtime.stage == "partial"
        assert outcome.runtime.reason == "pair-updates"

    def test_no_fallback_raises(self, small_pair):
        matcher = EMSMatcher(
            budget=MatchBudget(deadline=0.0), degradation=DegradationPolicy.none()
        )
        with pytest.raises(BudgetExhausted):
            matcher.match(*small_pair)


class TestCompositeResilience:
    def test_exhausted_deadline_returns_valid_outcome(self, adversarial_pair):
        """The acceptance criterion: never a traceback, always an outcome."""
        matcher = EMSCompositeMatcher(budget=MatchBudget(deadline=0.0))
        outcome = matcher.match(*adversarial_pair)
        assert outcome.runtime is not None
        assert outcome.runtime.degraded
        assert outcome.runtime.stage in ("estimated", "partial")
        assert 0.0 <= outcome.objective <= 1.0

    def test_search_truncation_keeps_exact_matrix(self, small_pair):
        # Size the budget from the real initial-similarity cost so the
        # fixpoint completes but the candidate search cannot.
        baseline = EMSMatcher().match(*small_pair)
        initial_cost = int(baseline.diagnostics["pair_updates"])
        matcher = EMSCompositeMatcher(
            budget=MatchBudget(max_pair_updates=initial_cost + 1),
            min_confidence=0.5,
        )
        outcome = matcher.match(*small_pair)
        assert outcome.runtime.degraded
        assert outcome.runtime.stage == "partial"
        assert outcome.runtime.reason == "pair-updates"
        assert "truncated" in outcome.runtime.detail
        # The matrix itself is the exact singleton solution.
        assert outcome.objective == pytest.approx(baseline.objective)

    def test_truncation_after_a_merge_keeps_that_merge_state(self, wide_pair):
        # 4,032 pair updates run out in round 2, after round 1 accepted a
        # merge: the result is that merge state, matrix and members alike,
        # as an interrupt at the round-2 boundary returns it.
        stopped = CompositeMatcher(EMSConfig(), delta=0.001, faults=FaultPlan(
            specs=(FaultSpec(site="search.round", kind="interrupt", round=2),)
        )).match(*wide_pair)
        truncated = CompositeMatcher(
            EMSConfig(), delta=0.001, budget=MatchBudget(max_pair_updates=4032)
        ).match(*wide_pair)
        assert truncated.runtime.reason == "pair-updates"
        assert truncated.stats.rounds == 2
        assert truncated.accepted_first == stopped.accepted_first
        assert truncated.accepted_second == stopped.accepted_second
        assert len(stopped.accepted_first + stopped.accepted_second) == 1
        assert truncated.members_first == stopped.members_first
        assert truncated.matrix.rows == stopped.matrix.rows
        assert truncated.matrix.cols == stopped.matrix.cols
        np.testing.assert_array_equal(
            truncated.matrix.values, stopped.matrix.values
        )
        outcome = EMSCompositeMatcher(
            delta=0.001, budget=MatchBudget(max_pair_updates=4032)
        ).match(*wide_pair)
        assert any(c.is_composite() for c in outcome.correspondences)

    def test_unbudgeted_composite_unchanged_and_annotated(self, small_pair):
        outcome = EMSCompositeMatcher().match(*small_pair)
        assert outcome.runtime is not None
        assert outcome.runtime.stage == "exact"
        assert outcome.runtime.rounds >= 1

    def test_composite_no_fallback_raises(self, adversarial_pair):
        matcher = EMSCompositeMatcher(
            budget=MatchBudget(deadline=0.0), degradation=DegradationPolicy.none()
        )
        with pytest.raises(BudgetExhausted):
            matcher.match(*adversarial_pair)

    def test_runtime_report_serializes(self, small_pair):
        outcome = EMSCompositeMatcher(budget=MatchBudget(deadline=0.0)).match(*small_pair)
        payload = outcome.runtime.to_dict()
        assert payload["degraded"] is True
        assert payload["stage"] in ("estimated", "partial")
        assert "pair_updates" in payload
        assert isinstance(outcome.runtime.describe(), str)
