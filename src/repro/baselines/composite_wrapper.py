"""Generic greedy composite matching around any :class:`EventMatcher`.

Figures 10-14 of the paper compare composite event matching across EMS
*and* the baselines.  The baselines have no notion of composite events,
so — as in the paper — they are wrapped in the same greedy loop of
Algorithm 2: in each round, try merging every remaining candidate on
either side, keep the merge that improves the matcher's own objective
the most, stop when the improvement falls below ``delta``.

For similarity measures with expensive evaluations (GED, OPQ) this
wrapper is exactly the cost amplifier the paper describes: "we need to
frequently compute the similarities of events for various combinations of
candidate composite events, which is not affordable for similarity
measures with high computational costs".
"""

from __future__ import annotations

from repro.baselines.common import (
    Evaluation,
    EventMatcher,
    MatchOutcome,
    identity_members,
    pairs_to_outcome,
)
from repro.core.composite import discover_candidates
from repro.exceptions import MatchingError
from repro.graph.merge import CountTable, merge_runs
from repro.logs.log import EventLog


class GreedyCompositeWrapper(EventMatcher):
    """Algorithm 2 with an arbitrary matcher supplying the objective."""

    def __init__(
        self,
        base: EventMatcher,
        delta: float = 0.01,
        min_confidence: float = 1.0,
        max_run_length: int = 4,
        max_candidates: int | None = None,
        max_rounds: int = 20,
    ):
        if delta < 0.0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        self.base = base
        self.name = base.name
        self.delta = delta
        self.min_confidence = min_confidence
        self.max_run_length = max_run_length
        self.max_candidates = max_candidates
        self.max_rounds = max_rounds

    def evaluate(self, log_first, log_second, members_first, members_second) -> Evaluation:
        return self.base.evaluate(log_first, log_second, members_first, members_second)

    def match(self, log_first: EventLog, log_second: EventLog) -> MatchOutcome:
        logs = [log_first, log_second]
        members = [identity_members(log_first), identity_members(log_second)]
        current = self.base.evaluate(log_first, log_second, members[0], members[1])
        evaluations = 1

        for _ in range(self.max_rounds):
            best: tuple[int, tuple[str, ...], Evaluation] | None = None
            best_objective = current.objective
            for side in (0, 1):
                candidates = discover_candidates(
                    CountTable.from_log(logs[side]),
                    min_confidence=self.min_confidence,
                    max_run_length=self.max_run_length,
                    max_candidates=self.max_candidates,
                )
                for run in candidates:
                    merged_log, merged_members = merge_runs(
                        logs[side], [run], members[side]
                    )
                    trial_logs = list(logs)
                    trial_members = list(members)
                    trial_logs[side] = merged_log
                    trial_members[side] = merged_members
                    try:
                        outcome = self.base.evaluate(
                            trial_logs[0], trial_logs[1],
                            trial_members[0], trial_members[1],
                        )
                    except MatchingError:
                        continue  # e.g. OPQ budget exceeded on this variant
                    evaluations += 1
                    if outcome.objective > best_objective:
                        best_objective = outcome.objective
                        best = (side, run, outcome)
            if best is None or best_objective - current.objective <= self.delta:
                break
            side, run, outcome = best
            logs[side], members[side] = merge_runs(logs[side], [run], members[side])
            current = outcome

        result = pairs_to_outcome(current, members[0], members[1])
        diagnostics = dict(result.diagnostics)
        diagnostics["composite_evaluations"] = float(evaluations)
        return MatchOutcome(result.correspondences, result.objective, diagnostics)
