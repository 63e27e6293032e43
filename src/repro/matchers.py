"""High-level matcher adapters: the library's main entry points.

These classes tie the layers together — logs to dependency graphs to
similarities to correspondences — behind the uniform
:class:`repro.baselines.common.EventMatcher` interface shared with the
baselines, so the experiment harness can treat every method identically.

* :class:`EMSMatcher` — singleton (1:1) matching with the paper's EMS
  similarity; set ``estimation_iterations`` for the ``EMS+es`` variant.
* :class:`EMSCompositeMatcher` — m:n matching via the greedy composite
  loop with the Uc/Bd prunings.
"""

from __future__ import annotations

from typing import Mapping

from repro.baselines.common import (
    Evaluation,
    EventMatcher,
    MatchOutcome,
    identity_members,
    pairs_to_outcome,
)
from repro.core.composite import CompositeMatcher
from repro.core.config import EMSConfig
from repro.core.ems import EMSEngine, EMSResult
from repro.graph.dependency import DependencyGraph
from repro.logs.log import EventLog
from repro.logs.stats import LogStatistics
from repro.matching.assignment import max_weight_assignment
from repro.matching.evaluation import Correspondence
from repro.obs import NULL_OBSERVER, Observer
from repro.runtime.budget import InterruptGuard, MatchBudget
from repro.runtime.degrade import DegradationPolicy
from repro.runtime.faults import FaultPlan
from repro.runtime.report import STAGE_EXACT, RuntimeReport
from repro.similarity.labels import (
    CompositeAwareSimilarity,
    LabelSimilarity,
    OpaqueSimilarity,
)
from repro.store.matchstore import MatchStore


class EMSMatcher(EventMatcher):
    """1:1 event matching with the EMS similarity.

    Parameters
    ----------
    config:
        The :class:`EMSConfig`; pass ``estimation_iterations=I`` for the
        estimated variant (``EMS+es``).
    label_similarity:
        The ``S^L`` blended in via ``1 - alpha``.
    threshold:
        Selected pairs must exceed this similarity to be reported.
    min_edge_frequency:
        Minimum-frequency edge filtering when building graphs (Figure 7).
    budget:
        Optional :class:`~repro.runtime.MatchBudget` (wall-clock deadline
        and/or pair-update cap) cooperatively enforced inside the
        fixpoint iteration.
    degradation:
        The :class:`~repro.runtime.DegradationPolicy` applied when the
        budget runs out; defaults to the full exact → estimated → partial
        ladder.  Results always carry a
        :class:`~repro.runtime.RuntimeReport` via ``outcome.runtime``.
    """

    name = "EMS"

    def __init__(
        self,
        config: EMSConfig | None = None,
        label_similarity: LabelSimilarity | None = None,
        threshold: float = 0.0,
        min_edge_frequency: float = 0.0,
        name: str | None = None,
        budget: MatchBudget | None = None,
        degradation: DegradationPolicy | None = None,
        observer: Observer | None = None,
    ):
        self.config = config if config is not None else EMSConfig()
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.label_similarity = (
            label_similarity if label_similarity is not None else OpaqueSimilarity()
        )
        self.threshold = threshold
        self.min_edge_frequency = min_edge_frequency
        self.budget = budget
        self.degradation = degradation if degradation is not None else DegradationPolicy()
        if name is not None:
            self.name = name
        elif self.config.estimation_iterations is not None:
            self.name = "EMS+es"

    def evaluate(
        self,
        log_first: EventLog,
        log_second: EventLog,
        members_first: Mapping[str, frozenset[str]],
        members_second: Mapping[str, frozenset[str]],
    ) -> Evaluation:
        evaluation, _ = self._evaluate_with_runtime(
            log_first, log_second, members_first, members_second
        )
        return evaluation

    def match(self, log_first: EventLog, log_second: EventLog) -> MatchOutcome:
        members_first = identity_members(log_first)
        members_second = identity_members(log_second)
        evaluation, runtime = self._evaluate_with_runtime(
            log_first, log_second, members_first, members_second
        )
        return pairs_to_outcome(evaluation, members_first, members_second, runtime)

    def match_statistics(
        self, stats_first: LogStatistics, stats_second: LogStatistics,
        name_first: str = "log_first", name_second: str = "log_second",
    ) -> MatchOutcome:
        """Match from precomputed :class:`LogStatistics`, logs unseen.

        The out-of-core entry point: the streamed/store-backed ingestion
        pipeline (:mod:`repro.store`) reduces each input to statistics
        without ever materializing an :class:`EventLog`, and this method
        completes the matching from there.  Statistics determine the
        dependency graphs exactly (Definition 1), so the outcome is
        bit-identical to :meth:`match` on the equivalent logs.
        """
        obs = self.observer
        with obs.span("graph.build", activities=len(stats_first.activity_frequencies)):
            graph_first = DependencyGraph.from_statistics(
                stats_first, name=name_first,
                min_frequency=self.min_edge_frequency,
            )
        with obs.span("graph.build", activities=len(stats_second.activity_frequencies)):
            graph_second = DependencyGraph.from_statistics(
                stats_second, name=name_second,
                min_frequency=self.min_edge_frequency,
            )
        return self.match_graphs(graph_first, graph_second)

    def match_graphs(
        self, graph_first: DependencyGraph, graph_second: DependencyGraph
    ) -> MatchOutcome:
        """Match two already-built dependency graphs (1:1 events)."""
        outcome, _, _ = self.match_graphs_detailed(graph_first, graph_second)
        return outcome

    def match_graphs_detailed(
        self, graph_first: DependencyGraph, graph_second: DependencyGraph
    ) -> tuple[MatchOutcome, EMSResult, RuntimeReport]:
        """Like :meth:`match_graphs`, but also expose the raw result.

        The match store needs the :class:`EMSResult` (directional
        matrices, convergence flags) to decide whether the computation is
        persistable, and the :class:`RuntimeReport` to gate on the stage.
        """
        members_first = {node: frozenset({node}) for node in graph_first.nodes}
        members_second = {node: frozenset({node}) for node in graph_second.nodes}
        evaluation, runtime, result = self._evaluate_graphs(
            graph_first, graph_second, members_first, members_second,
            started=self.observer.clock(),
        )
        outcome = pairs_to_outcome(evaluation, members_first, members_second, runtime)
        return outcome, result, runtime

    def outcome_from_result(self, result: EMSResult) -> MatchOutcome:
        """Complete a match from an already-computed :class:`EMSResult`.

        The store-hit path: the similarity matrix was persisted by an
        earlier run, so only the assignment and threshold filtering run —
        the exact tail of :meth:`match_graphs`, on the exact same values,
        producing a bit-identical outcome without graphs or fixpoint.
        ``iterations`` / ``pair_updates`` report the stored computation.
        """
        matrix = result.matrix
        members_first = {node: frozenset({node}) for node in matrix.rows}
        members_second = {node: frozenset({node}) for node in matrix.cols}
        evaluation, runtime = self._finish(
            result, STAGE_EXACT, None, self.observer.clock()
        )
        return pairs_to_outcome(evaluation, members_first, members_second, runtime)

    def _evaluate_with_runtime(
        self,
        log_first: EventLog,
        log_second: EventLog,
        members_first: Mapping[str, frozenset[str]],
        members_second: Mapping[str, frozenset[str]],
    ) -> tuple[Evaluation, RuntimeReport]:
        obs = self.observer
        started = obs.clock()
        with obs.span("graph.build", activities=len(log_first.activities())):
            graph_first = DependencyGraph.from_log(
                log_first, min_frequency=self.min_edge_frequency, members=members_first
            )
        with obs.span("graph.build", activities=len(log_second.activities())):
            graph_second = DependencyGraph.from_log(
                log_second, min_frequency=self.min_edge_frequency, members=members_second
            )
        evaluation, runtime, _ = self._evaluate_graphs(
            graph_first, graph_second, members_first, members_second,
            started=started,
        )
        return evaluation, runtime

    def _evaluate_graphs(
        self,
        graph_first: DependencyGraph,
        graph_second: DependencyGraph,
        members_first: Mapping[str, frozenset[str]],
        members_second: Mapping[str, frozenset[str]],
        *,
        started: float,
    ) -> tuple[Evaluation, RuntimeReport, EMSResult]:
        obs = self.observer
        label: LabelSimilarity = self.label_similarity
        if not isinstance(label, OpaqueSimilarity) and self.config.alpha < 1.0:
            label = CompositeAwareSimilarity(
                self.label_similarity, dict(members_first), dict(members_second)
            )
        engine = EMSEngine(self.config, label, observer=obs)
        if self.budget is None:
            result = engine.similarity(graph_first, graph_second)
            stage, reason = STAGE_EXACT, None
        else:
            result, stage, reason = engine.similarity_resilient(
                graph_first, graph_second, self.budget.start(obs.clock), self.degradation,
            )
        evaluation, runtime = self._finish(result, stage, reason, started)
        return evaluation, runtime, result

    def _finish(
        self,
        result: EMSResult,
        stage: str,
        reason: str | None,
        started: float,
    ) -> tuple[Evaluation, RuntimeReport]:
        """Assignment + threshold filtering: the shared match tail.

        Both the live fixpoint path and the store-served path end here,
        so a served matrix goes through the exact operations a computed
        one does — bit-identity of the outcome reduces to bit-identity of
        the matrix.
        """
        obs = self.observer
        matrix = result.matrix
        values = matrix.values
        with obs.span("match.assign", rows=len(matrix.rows), cols=len(matrix.cols)):
            assignment = max_weight_assignment(values)
        pairs = tuple(
            (matrix.rows[i], matrix.cols[j])
            for i, j in assignment
            if values[i, j] > self.threshold
        )
        runtime = RuntimeReport(
            stage=stage,
            degraded=stage != STAGE_EXACT,
            reason=reason,
            iterations=result.iterations,
            pair_updates=result.pair_updates,
            wall_time=obs.clock() - started,
        )
        evaluation = Evaluation(
            objective=matrix.average(),
            pairs=pairs,
            diagnostics={
                "iterations": float(result.iterations),
                "pair_updates": float(result.pair_updates),
            },
        )
        return evaluation, runtime


class EMSCompositeMatcher(EventMatcher):
    """m:n event matching: greedy composite merging plus EMS similarity."""

    name = "EMS"

    def __init__(
        self,
        config: EMSConfig | None = None,
        label_similarity: LabelSimilarity | None = None,
        threshold: float = 0.0,
        delta: float = 0.01,
        min_confidence: float = 1.0,
        max_run_length: int = 4,
        max_candidates: int | None = None,
        use_unchanged: bool = True,
        use_bounds: bool = True,
        min_edge_frequency: float = 0.0,
        name: str | None = None,
        budget: MatchBudget | None = None,
        degradation: DegradationPolicy | None = None,
        observer: Observer | None = None,
        faults: FaultPlan | None = None,
        interrupt: InterruptGuard | None = None,
        store: MatchStore | None = None,
    ):
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.matcher = CompositeMatcher(
            config=config,
            label_similarity=label_similarity,
            delta=delta,
            min_confidence=min_confidence,
            max_run_length=max_run_length,
            max_candidates=max_candidates,
            use_unchanged=use_unchanged,
            use_bounds=use_bounds,
            min_edge_frequency=min_edge_frequency,
            budget=budget,
            degradation=degradation,
            observer=observer,
            faults=faults,
            interrupt=interrupt,
            store=store,
        )
        self.threshold = threshold
        self._singleton = EMSMatcher(
            config=config,
            label_similarity=label_similarity,
            threshold=threshold,
            min_edge_frequency=min_edge_frequency,
            observer=observer,
        )
        if name is not None:
            self.name = name
        elif self.matcher.config.estimation_iterations is not None:
            self.name = "EMS+es"

    def evaluate(self, log_first, log_second, members_first, members_second) -> Evaluation:
        return self._singleton.evaluate(
            log_first, log_second, members_first, members_second
        )

    def match(self, log_first: EventLog, log_second: EventLog) -> MatchOutcome:
        result = self.matcher.match(log_first, log_second)
        matrix = result.matrix
        values = matrix.values
        with self.observer.span(
            "match.assign", rows=len(matrix.rows), cols=len(matrix.cols)
        ):
            assignment = max_weight_assignment(values)
        correspondences = tuple(
            Correspondence(
                result.members_first[matrix.rows[i]],
                result.members_second[matrix.cols[j]],
            )
            for i, j in assignment
            if values[i, j] > self.threshold
        )
        stats = result.stats
        return MatchOutcome(
            correspondences,
            objective=matrix.average(),
            diagnostics={
                "rounds": float(stats.rounds),
                "candidates_evaluated": float(stats.candidates_evaluated),
                "evaluations_aborted": float(stats.evaluations_aborted),
                "pair_updates": float(stats.pair_updates),
                "pairs_fixed": float(stats.pairs_fixed),
                "composites_accepted": float(
                    len(result.accepted_first) + len(result.accepted_second)
                ),
            },
            runtime=result.runtime,
        )
