"""Tests for composite event matching (Section 4, Algorithm 2)."""

import pytest

from repro.core.composite import CompositeMatcher, discover_candidates
from repro.core.config import EMSConfig
from repro.graph.merge import CountTable
from repro.logs.log import EventLog


def discover(log: EventLog, *args, **kwargs) -> list[tuple[str, ...]]:
    """Candidate discovery over *log*'s count table."""
    return discover_candidates(CountTable.from_log(log), *args, **kwargs)


class TestDiscoverCandidates:
    def test_always_adjacent_pair_found(self):
        log = EventLog([["a", "b", "c"], ["x", "a", "b"]])
        assert ("a", "b") in discover(log)

    def test_sometimes_adjacent_pair_needs_lower_confidence(self):
        log = EventLog([["a", "b"], ["a", "c"]])
        assert ("a", "b") not in discover(log, min_confidence=1.0)
        assert ("a", "b") in discover(log, min_confidence=0.5)

    def test_chains_extend(self):
        log = EventLog([["a", "b", "c"]] * 5)
        candidates = discover(log, max_run_length=3)
        assert ("a", "b", "c") in candidates
        assert ("a", "b") in candidates
        assert ("b", "c") in candidates

    def test_max_run_length_respected(self):
        log = EventLog([["a", "b", "c", "d"]] * 3)
        candidates = discover(log, max_run_length=2)
        assert all(len(run) == 2 for run in candidates)

    def test_max_candidates_cap(self):
        log = EventLog([["a", "b", "c", "d"]] * 3)
        assert len(discover(log, max_candidates=2)) == 2
        assert discover(log, max_candidates=0) == []

    def test_no_cyclic_candidates(self):
        log = EventLog([["a", "b", "a", "b"]] * 3)
        for run in discover(log, min_confidence=0.4):
            assert len(set(run)) == len(run)

    def test_self_loops_ignored(self):
        log = EventLog([["a", "a", "b"]] * 3)
        for run in discover(log, min_confidence=0.3):
            assert all(run[i] != run[i + 1] for i in range(len(run) - 1))

    def test_validation(self):
        log = EventLog([["a", "b"]])
        with pytest.raises(ValueError):
            discover(log, min_confidence=0.0)
        with pytest.raises(ValueError):
            discover(log, max_run_length=1)

    def test_ordering_strongest_first(self):
        # (c, d) is always adjacent (confidence 1.0); (a, b) only in 80%
        # of a's occurrences (confidence 0.8) — confidence orders first.
        log = EventLog([["a", "b"]] * 8 + [["a", "c", "d"]] * 2)
        candidates = discover(log, min_confidence=0.1, max_run_length=2)
        assert candidates[0] == ("c", "d")
        assert ("a", "b") in candidates


class TestGreedyMatcher:
    @pytest.fixture()
    def matcher(self) -> CompositeMatcher:
        return CompositeMatcher(
            EMSConfig(), delta=0.005, min_confidence=0.9, max_run_length=2
        )

    def test_paper_example7(self, fig1_logs, matcher):
        """Greedy accepts exactly {C, D}; avg rises 0.502 -> ~0.509."""
        result = matcher.match(*fig1_logs)
        assert result.accepted_first == (("C", "D"),)
        assert result.accepted_second == ()
        assert result.average == pytest.approx(0.509, abs=2e-3)

    def test_members_expose_composite(self, fig1_logs, matcher):
        result = matcher.match(*fig1_logs)
        assert result.members_first["⟨C+D⟩"] == frozenset({"C", "D"})

    def test_high_delta_blocks_merging(self, fig1_logs):
        matcher = CompositeMatcher(EMSConfig(), delta=0.5, min_confidence=0.9)
        result = matcher.match(*fig1_logs)
        assert result.accepted_first == ()
        assert result.accepted_second == ()

    def test_delta_validated(self):
        with pytest.raises(ValueError):
            CompositeMatcher(delta=-0.1)

    def test_pruning_variants_agree_on_result(self, fig1_logs):
        results = []
        for use_unchanged in (False, True):
            for use_bounds in (False, True):
                matcher = CompositeMatcher(
                    EMSConfig(),
                    delta=0.005,
                    min_confidence=0.9,
                    max_run_length=2,
                    use_unchanged=use_unchanged,
                    use_bounds=use_bounds,
                )
                results.append(matcher.match(*fig1_logs))
        first = results[0]
        for other in results[1:]:
            assert other.accepted_first == first.accepted_first
            assert other.accepted_second == first.accepted_second
            assert other.average == pytest.approx(first.average, abs=1e-4)

    def test_pruning_reduces_work(self, fig1_logs):
        pruned = CompositeMatcher(
            EMSConfig(), delta=0.005, min_confidence=0.9, max_run_length=2,
            use_unchanged=True, use_bounds=True,
        ).match(*fig1_logs)
        unpruned = CompositeMatcher(
            EMSConfig(), delta=0.005, min_confidence=0.9, max_run_length=2,
            use_unchanged=False, use_bounds=False,
        ).match(*fig1_logs)
        assert pruned.stats.pair_updates < unpruned.stats.pair_updates

    def test_stats_recorded(self, fig1_logs, matcher):
        result = matcher.match(*fig1_logs)
        assert result.stats.rounds >= 1
        assert result.stats.candidates_evaluated >= 1
        assert result.stats.pair_updates > 0

    def test_accepted_runs_pairwise_disjoint(self):
        # Overlapping candidates must never both be accepted.
        log_first = EventLog([["a", "b", "c", "d"]] * 20)
        log_second = EventLog([["x", "y"]] * 20)
        matcher = CompositeMatcher(
            EMSConfig(), delta=0.0, min_confidence=0.9, max_run_length=3
        )
        result = matcher.match(log_first, log_second)
        seen: set[str] = set()
        for run in result.accepted_first + result.accepted_second:
            flattened = {
                member
                for node in run
                for member in (
                    result.members_first.get(node, frozenset({node}))
                    | result.members_second.get(node, frozenset({node}))
                )
            }
            # No accepted composite may reuse an already-merged activity
            # unless it is the nested merge of a previous composite.
            assert not (seen & flattened) or any(
                node.startswith("⟨") for node in run
            )
            seen.update(flattened)

    def test_labels_still_find_the_turbine_composite(self):
        from repro.similarity.labels import QGramCosineSimilarity
        from repro.synthesis.examples import turbine_order_logs

        log_first, log_second, _ = turbine_order_logs()
        matcher = CompositeMatcher(
            EMSConfig(alpha=0.5),
            label_similarity=QGramCosineSimilarity(),
            delta=0.005,
            min_confidence=0.9,
            max_run_length=2,
        )
        result = matcher.match(log_first, log_second)
        assert (("Check Inventory", "Validate"),) == result.accepted_first

    def test_no_candidates_returns_singleton_matching(self):
        # Alternating log: nothing is always-adjacent.
        log_first = EventLog([["a", "b"], ["b", "a"]] * 3)
        log_second = EventLog([["x", "y"], ["y", "x"]] * 3)
        matcher = CompositeMatcher(EMSConfig(), min_confidence=1.0)
        result = matcher.match(log_first, log_second)
        assert result.accepted_first == ()
        assert set(result.matrix.rows) == {"a", "b"}

    def test_ample_budget_stays_exact(self, fig1_logs):
        from repro.runtime.budget import MatchBudget

        matcher = CompositeMatcher(
            EMSConfig(), budget=MatchBudget(max_pair_updates=10**9),
            delta=0.005, min_confidence=0.9, max_run_length=2,
        )
        result = matcher.match(*fig1_logs)
        assert result.runtime is not None
        assert result.runtime.stage == "exact"
        assert result.accepted_first == (("C", "D"),)
