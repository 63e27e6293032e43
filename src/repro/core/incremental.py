"""Incremental candidate evaluation for the composite search (Section 4).

The greedy loop of :class:`repro.core.composite.CompositeMatcher` evaluates
every remaining candidate merge in every round.  Scoring a candidate from
scratch costs a full log rewrite, a full recount, two graph builds with
fresh longest-distance passes, and an ``O(n1 * n2)`` Python-dict Uc
seeding.  This module replaces all of that with delta work proportional
to what the merge actually touches, while staying **bit-identical** to
that full rebuild:

* **delta graph merges** — :func:`repro.graph.merge.merge_counts` patches
  the parent round's integer trace counters from only the distinct trace
  variants containing the run, each rewritten once as an activity tuple
  and weighted by its multiplicity; identical integers divided by the
  same trace count give
  bit-identical frequencies, hence bit-identical graphs
  (:func:`repro.graph.merge.merged_graph_from_delta`), with Proposition-2
  levels recomputed only where ``l(v)`` can change;
* **warm-started fixpoint** — the parent round's converged directional
  matrices are mapped onto the merged node grid as a
  :class:`repro.core.ems.WarmStart` whose non-dirty region is exactly the
  Proposition-4 unchanged set a full rebuild seeds through ``fixed_pairs``
  dictionaries.  Same fixed cells, same values, array-built — the fixpoint
  then re-iterates only pairs in the dirty frontier.

Each candidate then runs under the Bd abort of Section 4.3 when
``use_bounds`` is on; nothing else decides whether a candidate is
evaluated.

The full rebuild is the test oracle in ``tests/composite_oracle.py``.
``tests/property/test_property_incremental.py`` holds the equivalence to
account: identical trajectories, scores and stats against the oracle,
with and without a budget, including under mid-round budget exhaustion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import EMSConfig
from repro.core.ems import EMSEngine, EMSResult, LabelMatrixCache, WarmStart
from repro.core.matrix import SimilarityMatrix
from repro.graph.dependency import DependencyGraph
from repro.graph.merge import (
    LogCounts,
    TraceIndex,
    apply_delta_to_log,
    merge_counts,
    merged_graph_from_delta,
    merged_member_map,
)
from repro.graph.reachability import real_ancestors, real_descendants
from repro.logs.log import EventLog
from repro.obs import NULL_OBSERVER, Observer
from repro.runtime.budget import BudgetMeter
from repro.similarity.labels import CompositeAwareSimilarity, LabelSimilarity, OpaqueSimilarity


@dataclass(slots=True)
class CandidateEvaluation:
    """What :meth:`IncrementalSearchState.evaluate` learned about one candidate.

    ``outcome`` is ``None`` when the Bd abort cut the evaluation short;
    ``pair_updates`` is the work the evaluation did either way.
    """

    outcome: EMSResult | None
    pairs_fixed: int
    pair_updates: int


@dataclass(slots=True)
class _IncrementalSide:
    """One log's evolving state plus the delta-merge support structures."""

    log: EventLog
    members: dict[str, frozenset[str]]
    graph: DependencyGraph
    counts: LogCounts
    index: TraceIndex


class IncrementalSearchState:
    """Round-scoped incremental evaluation engine for the composite search.

    Lifecycle: :meth:`reset` once per match with the initial side states,
    :meth:`begin_round` at the top of every greedy round with the current
    result's directional matrices, :meth:`evaluate` per candidate, and
    :meth:`apply_accepted` when a round accepts a merge.
    """

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
        self._sides: list[_IncrementalSide] = []
        self._directional: dict[str, SimilarityMatrix] | None = None
        #: Per (direction, side): the parent matrix as a raw array, built
        #: lazily once per round and sliced into candidate warm starts.
        self._warm_values: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(
        self, sides: tuple[tuple[EventLog, dict[str, frozenset[str]], DependencyGraph], ...]
    ) -> None:
        """Adopt the match's initial per-side (log, members, graph) states."""
        self._sides = [
            _IncrementalSide(
                log=log,
                members=dict(members),
                graph=graph,
                counts=LogCounts.from_log(log),
                index=TraceIndex(log),
            )
            for log, members, graph in sides
        ]
        self._directional = None
        self._warm_values = {}

    def begin_round(self, directional: dict[str, SimilarityMatrix] | None) -> None:
        """Start a greedy round; *directional* feeds this round's warm starts."""
        self._directional = directional if self.use_unchanged else None
        self._warm_values = (
            {name: matrix.values for name, matrix in self._directional.items()}
            if self._directional
            else {}
        )

    def side(self, side_index: int) -> _IncrementalSide:
        return self._sides[side_index]

    # ------------------------------------------------------------------
    # Candidate evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        side_index: int,
        run: tuple[str, ...],
        abort_below: float,
        meter: BudgetMeter | None = None,
    ) -> CandidateEvaluation:
        """Score merging *run* on one side, incrementally.

        Same graphs, same fixed pairs and same engine calls as a full
        rebuild, so results are interchangeable with it.
        """
        side = self._sides[side_index]
        other = self._sides[1 - side_index]
        delta = merge_counts(side.counts, side.index, run)

        merged_members = merged_member_map(
            sorted(delta.counts.activity), run, side.members
        )
        need_backward = self.config.direction in ("backward", "both")
        with self.observer.span("graph.build", merged=True, run=list(run)):
            merged_graph = merged_graph_from_delta(
                side.graph, delta, self.min_edge_frequency, merged_members,
                patch_reversed=need_backward,
            )
        if side_index == 0:
            members_pair = (merged_members, other.members)
            graphs = (merged_graph, other.graph)
        else:
            members_pair = (other.members, merged_members)
            graphs = (other.graph, merged_graph)
        if isinstance(self.base_label, OpaqueSimilarity) or self.config.alpha == 1.0:
            label: LabelSimilarity = self.base_label
        else:
            label = CompositeAwareSimilarity(self.base_label, *members_pair)
        engine = EMSEngine(self.config, label, self.label_cache, observer=self.observer)

        fixed_forward, fixed_backward, pairs_fixed = self._warm_starts(
            side_index, run, delta.name, merged_graph, other.graph
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

    def apply_accepted(
        self, side_index: int, run: tuple[str, ...]
    ) -> tuple[EventLog, dict[str, frozenset[str]], DependencyGraph]:
        """Advance one side past an accepted merge; returns its new state."""
        side = self._sides[side_index]
        delta = merge_counts(side.counts, side.index, run)
        members = merged_member_map(sorted(delta.counts.activity), run, side.members)
        graph = merged_graph_from_delta(
            side.graph, delta, self.min_edge_frequency, members,
            patch_reversed=self.config.direction in ("backward", "both"),
        )
        side.log = apply_delta_to_log(side.log, delta)
        side.members = members
        side.graph = graph
        side.counts = delta.counts
        side.index.apply(delta)
        return side.log, side.members, side.graph

    # ------------------------------------------------------------------
    # Warm starts (Proposition 4 in array form)
    # ------------------------------------------------------------------
    def _warm_starts(
        self,
        side_index: int,
        run: tuple[str, ...],
        name: str,
        merged_graph: DependencyGraph,
        other_graph: DependencyGraph,
    ) -> tuple[WarmStart | None, WarmStart | None, int]:
        """The per-direction warm starts for merging *run* on one side.

        Fixes exactly the Uc pairs — parent nodes with no real path from
        the run (per direction) crossed with every node of the other
        graph — at exactly the parent matrix values.
        """
        if not self.use_unchanged or self._directional is None:
            return None, None, 0
        parent_graph = self._sides[side_index].graph
        parent_nodes = parent_graph.nodes
        merged_index = {node: i for i, node in enumerate(merged_graph.nodes)}
        n_other = len(other_graph.nodes)
        # Carried values are narrowed to the run dtype here, matching what
        # a cold run would do when seeding the same fixed pairs.
        dtype = self.config.np_dtype
        starts: dict[str, WarmStart] = {}
        count = 0
        for direction, parent_values in self._warm_values.items():
            if direction == "forward":
                affected = set(run) | real_descendants(parent_graph, run)
            else:
                affected = set(run) | real_ancestors(parent_graph, run)
            affected.add(name)
            merged_rows: list[int] = []
            parent_rows: list[int] = []
            for parent_pos, node in enumerate(parent_nodes):
                if node not in affected:
                    merged_rows.append(merged_index[node])
                    parent_rows.append(parent_pos)
            if side_index == 0:
                shape = (len(merged_index), n_other)
                values = np.zeros(shape, dtype=dtype)
                dirty = np.ones(shape, dtype=bool)
                if merged_rows:
                    values[merged_rows, :] = parent_values[parent_rows, :]
                    dirty[merged_rows, :] = False
            else:
                shape = (n_other, len(merged_index))
                values = np.zeros(shape, dtype=dtype)
                dirty = np.ones(shape, dtype=bool)
                if merged_rows:
                    values[:, merged_rows] = parent_values[:, parent_rows]
                    dirty[:, merged_rows] = False
            start = WarmStart(values=values, dirty=dirty)
            starts[direction] = start
            count += start.pairs_fixed
        return starts.get("forward"), starts.get("backward"), count
