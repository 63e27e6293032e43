"""Test oracles for the composite search (Algorithm 2).

:class:`ColdSearchState` scores a candidate merge the straightforward
way: rewrite the log with :func:`~repro.graph.merge.merge_run_in_log`,
rebuild the dependency graph with
:func:`tests.count_oracle.statistics` (counted trace by trace), seed the Uc
pairs (Proposition 4) as fixed-value dictionaries, and run
:meth:`~repro.core.ems.EMSEngine.similarity` (under the Bd abort when
``use_bounds`` is on).  It offers the
methods of :class:`~repro.core.incremental.IncrementalSearchState`, so
the production greedy loop runs on it unchanged:
:class:`ColdCompositeMatcher` swaps it in for
``repro.core.composite.IncrementalSearchState`` while it matches.
Nothing in ``src/`` knows about it.
"""

from __future__ import annotations

from repro.core import composite
from repro.core.config import EMSConfig
from repro.core.ems import EMSEngine, LabelMatrixCache
from repro.core.incremental import CandidateEvaluation
from repro.core.matrix import SimilarityMatrix
from repro.graph.dependency import DependencyGraph
from repro.graph.merge import composite_name, merge_run_in_log
from repro.graph.reachability import real_ancestors, real_descendants
from repro.logs.log import EventLog
from repro.obs import NULL_OBSERVER, Observer
from repro.runtime.budget import BudgetMeter
from repro.similarity.labels import (
    CompositeAwareSimilarity,
    LabelSimilarity,
    OpaqueSimilarity,
)
from tests import count_oracle

SideState = tuple[EventLog, dict[str, frozenset[str]], DependencyGraph]


class ColdSearchState:
    """Full-rebuild candidate evaluation behind the search-state interface."""

    def __init__(
        self,
        config: EMSConfig,
        base_label: LabelSimilarity,
        min_edge_frequency: float,
        use_unchanged: bool,
        use_bounds: bool,
        label_cache: LabelMatrixCache | None = None,
        observer: Observer | None = None,
    ):
        self.config = config
        self.base_label = base_label
        self.min_edge_frequency = min_edge_frequency
        self.use_unchanged = use_unchanged
        self.use_bounds = use_bounds
        self.label_cache = label_cache
        self.observer = observer if observer is not None else NULL_OBSERVER
        self._sides: list[SideState] = []
        self._directional: dict[str, SimilarityMatrix] | None = None

    def reset(self, sides: tuple[SideState, ...]) -> None:
        self._sides = [(log, dict(members), graph) for log, members, graph in sides]
        self._directional = None

    def begin_round(self, directional: dict[str, SimilarityMatrix] | None) -> None:
        self._directional = directional if self.use_unchanged else None

    def evaluate(
        self,
        side_index: int,
        run: tuple[str, ...],
        abort_below: float,
        meter: BudgetMeter | None = None,
    ) -> CandidateEvaluation:
        log, members, graph = self._sides[side_index]
        _, other_members, other_graph = self._sides[1 - side_index]
        merged_log, merged_members = merge_run_in_log(log, run, members)
        merged_graph = self._graph(merged_log, merged_members)
        if side_index == 0:
            members_pair = (merged_members, other_members)
            graphs = (merged_graph, other_graph)
        else:
            members_pair = (other_members, merged_members)
            graphs = (other_graph, merged_graph)
        if isinstance(self.base_label, OpaqueSimilarity) or self.config.alpha == 1.0:
            label: LabelSimilarity = self.base_label
        else:
            label = CompositeAwareSimilarity(self.base_label, *members_pair)
        engine = EMSEngine(self.config, label, self.label_cache, observer=self.observer)
        fixed_forward, fixed_backward, pairs_fixed = self._unchanged_pairs(
            side_index, run, graph, other_graph
        )
        outcome = engine.similarity(
            graphs[0], graphs[1], fixed_forward, fixed_backward, meter=meter,
            abort_below=abort_below if self.use_bounds else None,
        )
        return CandidateEvaluation(
            outcome=None if outcome.aborted else outcome,
            pairs_fixed=pairs_fixed,
            pair_updates=outcome.pair_updates,
        )

    def apply_accepted(self, side_index: int, run: tuple[str, ...]) -> SideState:
        log, members, _ = self._sides[side_index]
        merged_log, merged_members = merge_run_in_log(log, run, members)
        self._sides[side_index] = (
            merged_log, merged_members, self._graph(merged_log, merged_members)
        )
        return self._sides[side_index]

    def _graph(self, log: EventLog, members: dict[str, frozenset[str]]) -> DependencyGraph:
        # Counted trace by trace, independently of the log's variant table.
        return DependencyGraph.from_statistics(
            count_oracle.statistics(log), name=log.name,
            min_frequency=self.min_edge_frequency, members=members,
        )

    def _unchanged_pairs(
        self,
        side_index: int,
        run: tuple[str, ...],
        graph_merged: DependencyGraph,
        graph_other: DependencyGraph,
    ) -> tuple[dict | None, dict | None, int]:
        """Uc: converged values the merge provably cannot change.

        *graph_merged* is the merged side's graph **before** the merge.
        Returns ``(fixed_forward, fixed_backward, pairs_fixed)``.
        """
        if self._directional is None:
            return None, None, 0
        new_name = composite_name(run)
        fixed: dict[str, dict[tuple[str, str], float]] = {}
        for direction, matrix in self._directional.items():
            if direction == "forward":
                affected = set(run) | real_descendants(graph_merged, run)
            else:
                affected = set(run) | real_ancestors(graph_merged, run)
            affected.add(new_name)
            pairs: dict[tuple[str, str], float] = {}
            for node in graph_merged.nodes:
                if node in affected:
                    continue
                for other_node in graph_other.nodes:
                    if side_index == 0:
                        pairs[(node, other_node)] = matrix.get(node, other_node)
                    else:
                        pairs[(other_node, node)] = matrix.get(other_node, node)
            fixed[direction] = pairs
        count = sum(len(pairs) for pairs in fixed.values())
        return fixed.get("forward"), fixed.get("backward"), count


class ColdCompositeMatcher(composite.CompositeMatcher):
    """The production greedy loop on :class:`ColdSearchState`."""

    def match(self, log_first: EventLog, log_second: EventLog):
        original = composite.IncrementalSearchState
        composite.IncrementalSearchState = ColdSearchState
        try:
            return super().match(log_first, log_second)
        finally:
            composite.IncrementalSearchState = original
