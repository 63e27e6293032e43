"""Composite event matching (Section 4).

One event in a log may correspond to several events in the other
(*composite events*).  Finding the optimal sets of non-overlapping
composites maximizing the average similarity is NP-hard (Theorem 3, by
reduction from maximum set packing), so the paper — and this module —
uses a greedy loop (Algorithm 2):

1. compute the singleton similarity of the two dependency graphs;
2. in each round, score every remaining candidate composite on either
   side as if it were merged, and remember the candidate with the
   highest average similarity.  A candidate's score comes from
   :class:`~repro.core.incremental.IncrementalSearchState`: it patches
   the round's trace counts, graph and levels with the merge delta and
   warm-starts the fixpoint from the round's converged matrices, instead
   of rewriting the log and rebuilding the graph;
3. accept the best candidate if it improves the average by more than the
   threshold ``delta``; otherwise stop.

Two accelerations from the paper are implemented, and nothing else
steers the search:

* **Uc** (Proposition 4): when merging ``U`` into one graph, every pair
  whose row/column node has no real path from ``U`` keeps its similarity;
  those pairs are carried over as fixed values so the engine never
  re-iterates them.
* **Bd** (Section 4.3): candidate evaluations run under an average-
  similarity upper bound and abort as soon as they provably cannot beat
  the incumbent.

Every round evaluates its candidates in discovery order, with or without
a budget.

Candidate discovery follows the paper's convention: "grouping singleton
events that always appear consecutively, following the convention of SEQ
pattern in CEP" — with a relaxable adjacency confidence so the candidate
pool can be grown for the Figure 14 experiment.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.bounds import ABORT_MARGIN
from repro.core.config import EMSConfig
from repro.core.ems import EMSEngine, EMSResult, LabelMatrixCache
from repro.core.incremental import CandidateEvaluation, IncrementalSearchState
from repro.core.matrix import SimilarityMatrix
from repro.exceptions import BudgetExhausted
from repro.graph.dependency import DependencyGraph
from repro.logs.log import EventLog
from repro.logs.stats import activity_occurrence_counts, directly_follows_counts
from repro.obs import NULL_OBSERVER, Observer
from repro.runtime.budget import BudgetMeter, InterruptGuard, MatchBudget
from repro.runtime.degrade import DegradationPolicy
from repro.runtime.evalcache import candidate_key, discovery_key, search_content_key
from repro.runtime.faults import FaultPlan
from repro.runtime.report import STAGE_EXACT, STAGE_PARTIAL, RuntimeReport
from repro.similarity.labels import CompositeAwareSimilarity, LabelSimilarity, OpaqueSimilarity

if TYPE_CHECKING:  # the store imports the core: a runtime import would cycle
    from repro.store.matchstore import MatchStore


# ----------------------------------------------------------------------
# Candidate discovery
# ----------------------------------------------------------------------
def discover_candidates(
    log: EventLog,
    min_confidence: float = 1.0,
    max_run_length: int = 4,
    max_candidates: int | None = None,
) -> list[tuple[str, ...]]:
    """Candidate composite events of *log* as ordered activity runs.

    A pair ``(a, b)`` is a *strong adjacency* when ``b`` follows ``a`` in
    at least ``min_confidence`` of ``a``'s occurrences and ``a`` precedes
    ``b`` in at least ``min_confidence`` of ``b``'s occurrences
    (``min_confidence = 1.0`` is the paper's "always appear
    consecutively").  Candidates are all runs of chained strong
    adjacencies, up to *max_run_length*, strongest first, optionally
    capped at *max_candidates*.
    """
    if not 0.0 < min_confidence <= 1.0:
        raise ValueError(f"min_confidence must be in (0, 1], got {min_confidence}")
    if max_run_length < 2:
        raise ValueError(f"max_run_length must be >= 2, got {max_run_length}")
    occurrences = activity_occurrence_counts(log)
    follows = directly_follows_counts(log)

    strong_next: dict[str, list[tuple[str, float]]] = {}
    for (first, second), count in follows.items():
        if first == second:
            continue
        confidence = min(count / occurrences[first], count / occurrences[second])
        if confidence >= min_confidence:
            strong_next.setdefault(first, []).append((second, confidence))
    for extensions in strong_next.values():
        extensions.sort(key=lambda item: (-item[1], item[0]))

    candidates: dict[tuple[str, ...], float] = {}

    def extend(run: tuple[str, ...], strength: float) -> None:
        if len(run) >= 2:
            existing = candidates.get(run)
            if existing is None or strength > existing:
                candidates[run] = strength
        if len(run) >= max_run_length:
            return
        for successor, confidence in strong_next.get(run[-1], ()):
            if successor in run:
                continue  # no cyclic composites
            extend(run + (successor,), min(strength, confidence))

    for first, extensions in strong_next.items():
        for second, confidence in extensions:
            extend((first, second), confidence)

    ordered = sorted(candidates, key=lambda run: (-candidates[run], len(run), run))
    if max_candidates is not None:
        ordered = ordered[:max_candidates]
    return ordered


# ----------------------------------------------------------------------
# Greedy matcher
# ----------------------------------------------------------------------
@dataclass(slots=True)
class CompositeStats:
    """Instrumentation of one greedy matching run (Figures 12-14)."""

    rounds: int = 0
    candidates_evaluated: int = 0
    evaluations_aborted: int = 0
    pair_updates: int = 0
    pairs_fixed: int = 0


@dataclass(frozen=True, slots=True)
class CompositeMatchResult:
    """Outcome of composite event matching.

    The matrix is over the *merged* node vocabularies; use the member maps
    to expand node names back to original activity sets.
    """

    matrix: SimilarityMatrix
    log_first: EventLog
    log_second: EventLog
    members_first: dict[str, frozenset[str]]
    members_second: dict[str, frozenset[str]]
    accepted_first: tuple[tuple[str, ...], ...]
    accepted_second: tuple[tuple[str, ...], ...]
    stats: CompositeStats = field(compare=False, default_factory=CompositeStats)
    #: How the run ended (degradation stage, budget spend); always set by
    #: :meth:`CompositeMatcher.match`, ``None`` only for hand-built results.
    runtime: RuntimeReport | None = field(compare=False, default=None)

    @property
    def average(self) -> float:
        return self.matrix.average()


@dataclass(slots=True)
class _SideState:
    """One log's evolving merged state during the greedy loop."""

    log: EventLog
    members: dict[str, frozenset[str]]
    graph: DependencyGraph
    accepted: list[tuple[str, ...]]


class CompositeMatcher:
    """Greedy composite event matching (Algorithm 2).

    Parameters
    ----------
    config:
        EMS similarity configuration.
    label_similarity:
        Base label similarity; automatically wrapped so that composite
        nodes are scored through their member activities.
    delta:
        Minimum average-similarity improvement to accept a merge; the
        paper's Figure 13 sweeps this knob (moderate values work best).
    min_confidence, max_run_length, max_candidates:
        Candidate discovery knobs (see :func:`discover_candidates`).
    use_unchanged:
        Enable the Uc pruning (Proposition 4).
    use_bounds:
        Enable the Bd pruning (upper-bound abort, Section 4.3).
    min_edge_frequency:
        Minimum frequency control applied when (re)building graphs.
    budget:
        Optional :class:`~repro.runtime.MatchBudget` bounding the whole
        greedy search (wall clock and/or pair updates).  Checked between
        merge rounds and cooperatively inside every similarity
        evaluation.
    degradation:
        What to do when the budget runs out (default: the full
        exact → estimated → partial ladder).  With the ladder disabled,
        exhaustion raises :class:`~repro.exceptions.BudgetExhausted`.
    faults:
        Deterministic :class:`~repro.runtime.FaultPlan` for chaos tests
        (the ``search.round`` interrupt site).
    interrupt:
        Optional :class:`~repro.runtime.InterruptGuard` polled at round
        boundaries; when tripped, the search returns the best-so-far
        result as a ``partial`` stage with reason ``"interrupted"``.
    store:
        Optional :class:`~repro.store.matchstore.MatchStore`: candidate
        evaluations and discoveries are memoized in its ``evaluations``
        table, content-keyed by (log pair, config, knobs, accepted
        history, candidate, incumbent bound), and served on the next
        identical run instead of re-evaluating.  Results stay
        bit-identical — a hit replays the exact stored evaluation, and
        every load is digest-verified with damage degrading to a cold
        evaluation.  This is also how an interrupted search resumes:
        re-run it over the same store.  Evaluations bypass it while a
        budget meter is active (a served hit charges no meter, which
        would skew cooperative cancellation), so a budgeted search re-run
        after an interrupt starts cold and spends its budget exactly as
        an uninterrupted run does; discoveries are still stored.
    """

    def __init__(
        self,
        config: EMSConfig | None = None,
        label_similarity: LabelSimilarity | None = None,
        delta: float = 0.01,
        min_confidence: float = 1.0,
        max_run_length: int = 4,
        max_candidates: int | None = None,
        use_unchanged: bool = True,
        use_bounds: bool = True,
        min_edge_frequency: float = 0.0,
        budget: MatchBudget | None = None,
        degradation: DegradationPolicy | None = None,
        observer: Observer | None = None,
        faults: FaultPlan | None = None,
        interrupt: InterruptGuard | None = None,
        store: MatchStore | None = None,
    ):
        if delta < 0.0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.config = config if config is not None else EMSConfig()
        self.base_label = (
            label_similarity if label_similarity is not None else OpaqueSimilarity()
        )
        self.delta = delta
        self.min_confidence = min_confidence
        self.max_run_length = max_run_length
        self.max_candidates = max_candidates
        self.use_unchanged = use_unchanged
        self.use_bounds = use_bounds
        self.min_edge_frequency = min_edge_frequency
        self.budget = budget
        self.degradation = degradation if degradation is not None else DegradationPolicy()
        self.faults = faults
        self.interrupt = interrupt
        self.store = store
        #: One S^L cache per matching run, shared by every engine built
        #: for it; reset at the start of :meth:`match`.
        self._label_cache: LabelMatrixCache | None = None
        # Per-match working state, reset by :meth:`match`.
        self._content_key: str = ""
        self._accepted_history: list[tuple[int, tuple[str, ...]]] = []
        self._interrupted_by: str | None = None
        #: Per-side memo of the last discovery: ``side -> (log, runs)``.
        #: A side's log object is replaced only when a merge is accepted
        #: on it, so identity comparison is an exact staleness test.
        self._discovery_memo: dict[int, tuple[EventLog, list[tuple[str, ...]]]] = {}

    # ------------------------------------------------------------------
    def _engine(self, state_first: _SideState, state_second: _SideState) -> EMSEngine:
        if isinstance(self.base_label, OpaqueSimilarity) or self.config.alpha == 1.0:
            label: LabelSimilarity = self.base_label
        else:
            label = CompositeAwareSimilarity(
                self.base_label, state_first.members, state_second.members
            )
        return EMSEngine(self.config, label, self._label_cache, observer=self.observer)

    def _graph(self, log: EventLog, members: dict[str, frozenset[str]]) -> DependencyGraph:
        return DependencyGraph.from_log(
            log, min_frequency=self.min_edge_frequency, members=members
        )

    # ------------------------------------------------------------------
    def match(self, log_first: EventLog, log_second: EventLog) -> CompositeMatchResult:
        """Run Algorithm 2 on the two logs.

        With a :class:`~repro.runtime.MatchBudget` configured, the run is
        resilient: the initial similarity degrades through the ladder of
        the configured :class:`~repro.runtime.DegradationPolicy`, and a
        budget exhausted mid-search truncates the greedy loop and returns
        the best merge state found so far — always a valid result,
        annotated through :attr:`CompositeMatchResult.runtime`.
        """
        obs = self.observer
        started = obs.clock()
        meter = self.budget.start(obs.clock) if self.budget is not None else None
        policy = self.degradation
        self._label_cache = LabelMatrixCache(self.config.label_cache_entries)
        self._accepted_history = []
        self._interrupted_by = None
        self._content_key = ""
        self._discovery_memo = {}
        if self.store is not None:
            self._content_key = search_content_key(
                log_first, log_second,
                dataclasses.asdict(self.config),
                {
                    "delta": self.delta,
                    "min_confidence": self.min_confidence,
                    "max_run_length": self.max_run_length,
                    "max_candidates": self.max_candidates,
                    "use_unchanged": self.use_unchanged,
                    "use_bounds": self.use_bounds,
                    "min_edge_frequency": self.min_edge_frequency,
                },
            )
        with obs.span("graph.build", activities=len(log_first.activities())):
            graph_first = self._graph(log_first, {})
        with obs.span("graph.build", activities=len(log_second.activities())):
            graph_second = self._graph(log_second, {})
        states = (
            _SideState(
                log_first,
                {a: frozenset({a}) for a in log_first.activities()},
                graph_first,
                [],
            ),
            _SideState(
                log_second,
                {a: frozenset({a}) for a in log_second.activities()},
                graph_second,
                [],
            ),
        )
        stats = CompositeStats()
        stage: str = STAGE_EXACT
        reason: str | None = None
        detail: str | None = None
        engine = self._engine(states[0], states[1])
        if meter is None:
            current = engine.similarity(states[0].graph, states[1].graph)
        else:
            current, stage, reason = engine.similarity_resilient(
                states[0].graph, states[1].graph, meter, policy
            )
            if stage != STAGE_EXACT:
                detail = "initial similarity degraded; composite search skipped"
        stats.pair_updates += current.pair_updates

        if stage == STAGE_EXACT:
            current, exhausted = self._search(states, current, stats, meter)
            if exhausted is not None:
                if not policy.enabled:
                    raise exhausted
                # The matrix of the last accepted merge state is complete
                # and exact — only the candidate search was cut short.
                stage = STAGE_PARTIAL
                reason = exhausted.reason
                detail = (
                    f"composite search truncated after {stats.rounds} round(s)"
                )
            elif self._interrupted_by is not None:
                # The search unwound cleanly at a round boundary; the
                # matrix is complete.
                stage = STAGE_PARTIAL
                reason = "interrupted"
                detail = (
                    f"composite search interrupted by "
                    f"{self._interrupted_by} after {stats.rounds} round(s)"
                )

        # stats misses the pair updates of an evaluation aborted by the
        # budget mid-flight; the meter saw every metered update.
        spent = stats.pair_updates if meter is None else meter.pair_updates_spent
        runtime = RuntimeReport(
            stage=stage,
            degraded=stage != STAGE_EXACT,
            reason=reason,
            detail=detail,
            iterations=current.iterations,
            pair_updates=spent,
            wall_time=obs.clock() - started,
            rounds=stats.rounds,
        )
        return CompositeMatchResult(
            matrix=current.matrix,
            log_first=states[0].log,
            log_second=states[1].log,
            members_first=dict(states[0].members),
            members_second=dict(states[1].members),
            accepted_first=tuple(states[0].accepted),
            accepted_second=tuple(states[1].accepted),
            stats=stats,
            runtime=runtime,
        )

    def _search(
        self,
        states: tuple[_SideState, _SideState],
        current: EMSResult,
        stats: CompositeStats,
        meter: BudgetMeter | None,
    ) -> tuple[EMSResult, BudgetExhausted | None]:
        """The greedy merge loop of Algorithm 2.

        Returns the result of the last accepted merge state, and the
        :class:`BudgetExhausted` that cut the search short, if any: the
        side states only change when a merge is accepted, so that result
        always matches them.

        Candidate merges are evaluated through an
        :class:`IncrementalSearchState` — delta count patches, patched
        levels and warm-started fixpoints.  The
        full-rebuild evaluator it is tested against lives with the tests
        (``tests/composite_oracle.py``).
        """
        incremental = IncrementalSearchState(
            self.config, self.base_label, self.min_edge_frequency,
            self.use_unchanged, self.use_bounds, self._label_cache,
            observer=self.observer,
        )
        incremental.reset(
            tuple((state.log, state.members, state.graph) for state in states)
        )
        obs = self.observer
        try:
            while True:
                interrupted_by = self._interrupt_requested(stats.rounds + 1)
                if interrupted_by is not None:
                    self._interrupted_by = interrupted_by
                    return current, None
                if meter is not None:
                    meter.check()
                stats.rounds += 1
                with obs.span(f"composite.round[{stats.rounds}]") as round_span:
                    obs.gauge("composite_round", stats.rounds)
                    current_average = current.matrix.average()
                    target = current_average + self.delta
                    incremental.begin_round(
                        current.directional if self.use_unchanged else None
                    )

                    tasks: list[tuple[int, tuple[str, ...]]] = []
                    for side_index in (0, 1):
                        for run in self._discover(states, side_index):
                            tasks.append((side_index, run))
                    round_span.attributes["candidates"] = len(tasks)

                    best, best_average = self._round(
                        tasks, incremental, stats, target, current_average, meter,
                    )

                    if best is None or best_average - current_average <= self.delta:
                        round_span.attributes["accepted"] = None
                        return current, None

                    side_index, run, outcome = best
                    round_span.attributes["accepted"] = list(run)
                    round_span.attributes["average"] = best_average
                    obs.count("composite_merges_accepted_total")
                    state = states[side_index]
                    state.log, state.members, state.graph = (
                        incremental.apply_accepted(side_index, run)
                    )
                    state.accepted.append(run)
                    self._accepted_history.append((side_index, run))
                    current = outcome
        except BudgetExhausted as error:
            return current, error

    # ------------------------------------------------------------------
    def _discover(
        self,
        states: tuple[_SideState, _SideState],
        side_index: int,
    ) -> list[tuple[str, ...]]:
        """One side's candidate runs: memoized, optionally persisted.

        :func:`discover_candidates` is a pure function of the side's
        current log, so two layers of reuse are exact by construction:

        * **in-memory** — a side whose log did not change since the last
          round (no merge accepted on it) reuses the previous round's
          list outright;
        * **stored** — with a match store attached, the list is
          persisted under (content key, accepted history, side), so a
          warm re-run skips the full-log statistics recomputation that
          dominates once every candidate evaluation is a store hit.
        """
        log = states[side_index].log
        memo = self._discovery_memo.get(side_index)
        if memo is not None and memo[0] is log:
            return memo[1]
        runs: list[tuple[str, ...]] | None = None
        key: str | None = None
        if self.store is not None:
            key = discovery_key(
                self._content_key, tuple(self._accepted_history), side_index
            )
            runs = self.store.get_evaluation(key)
        if runs is None:
            runs = discover_candidates(
                log,
                min_confidence=self.min_confidence,
                max_run_length=self.max_run_length,
                max_candidates=self.max_candidates,
            )
            if key is not None:
                self.store.put_evaluation(key, runs)
        self._discovery_memo[side_index] = (log, runs)
        return runs

    # ------------------------------------------------------------------
    def _round(
        self,
        tasks: list[tuple[int, tuple[str, ...]]],
        incremental: IncrementalSearchState,
        stats: CompositeStats,
        target: float,
        best_average: float,
        meter: BudgetMeter | None,
    ) -> tuple[tuple[int, tuple[str, ...], EMSResult] | None, float]:
        """One round of candidates, evaluated in discovery order.

        The first candidate with the strictly highest average wins.  An
        exception from any evaluation ends the match: a round never
        finishes without one of its candidates.
        """
        best: tuple[int, tuple[str, ...], EMSResult] | None = None
        for side_index, run in tasks:
            # Bd aborts only candidates provably below the incumbent by more
            # than rounding: a near-tie is evaluated in full, so the abort
            # never decides between two equal averages.
            outcome = self._evaluate(
                incremental, side_index, run, stats,
                abort_below=max(best_average, target) - ABORT_MARGIN,
                meter=meter,
            )
            if outcome is None:
                continue
            average = outcome.matrix.average()
            if average > best_average:
                best_average = average
                best = (side_index, run, outcome)
        return best, best_average

    # ------------------------------------------------------------------
    def _cached_evaluation(
        self,
        side_index: int,
        run: tuple[str, ...],
        abort_below: float,
    ) -> tuple[str | None, CandidateEvaluation | None]:
        """``(key, hit)`` from the match store; ``(None, None)`` without one.

        The key covers the search content key (logs, config, knobs), the
        accepted-merge history that shaped the current side states, the
        candidate and the incumbent bound — everything the evaluation's
        result depends on.
        """
        if self.store is None:
            return None, None
        key = candidate_key(
            self._content_key, tuple(self._accepted_history),
            side_index, run, abort_below,
        )
        return key, self.store.get_evaluation(key)

    def _evaluate(
        self,
        incremental: IncrementalSearchState,
        side_index: int,
        run: tuple[str, ...],
        stats: CompositeStats,
        abort_below: float,
        meter: BudgetMeter | None = None,
    ) -> EMSResult | None:
        """Similarity of the graphs after merging *run* on one side.

        The candidate counts as evaluated even if the budget meter raises
        mid-fixpoint.
        """
        key = hit = None
        if meter is None:
            key, hit = self._cached_evaluation(side_index, run, abort_below)
        stats.candidates_evaluated += 1
        if hit is not None:
            evaluation = hit
        else:
            with self.observer.span(
                "candidate.evaluate", side=side_index, run=list(run)
            ):
                evaluation = incremental.evaluate(
                    side_index, run, abort_below, meter
                )
            if key is not None:
                self.store.put_evaluation(key, evaluation)
        stats.pairs_fixed += evaluation.pairs_fixed
        if evaluation.outcome is None:
            stats.evaluations_aborted += 1
            return None
        stats.pair_updates += evaluation.outcome.pair_updates
        return evaluation.outcome

    # ------------------------------------------------------------------
    def _interrupt_requested(self, next_round: int) -> str | None:
        """Who is asking the search to stop before *next_round*, if anyone."""
        if self.interrupt is not None and self.interrupt.interrupted:
            return self.interrupt.signal_name or "signal"
        if self.faults is not None:
            if self.faults.match("search.round", round=next_round) is not None:
                name = f"fault:search.round[{next_round}]"
                if self.interrupt is not None:
                    self.interrupt.trip(name)
                return name
        return None
