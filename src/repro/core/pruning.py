"""Early-convergence pruning schedule (Proposition 2).

A pair ``(v1, v2)`` is guaranteed fixed after ``h = min(l(v1), l(v2))``
iterations, where ``l(v)`` is the longest artificial-source distance
(:mod:`repro.graph.levels`).  The schedule answers two questions for the
engine: "may I skip updating this pair at iteration ``n``?" and "after
which iteration is *everything* guaranteed fixed?" — the latter is
``min(max_v1 l(v1), max_v2 l(v2))`` per Section 3.4.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.dependency import DependencyGraph
from repro.graph.levels import max_finite_level


class ConvergenceSchedule:
    """Pair-level convergence bounds for a pair of dependency graphs."""

    __slots__ = (
        "levels_first", "levels_second", "node_levels_first", "node_levels_second",
        "pair_levels", "global_bound",
    )

    def __init__(self, first: DependencyGraph, second: DependencyGraph):
        # Graphs cache their levels (DependencyGraph.levels), so repeated
        # schedules over the same graph — every candidate of a composite
        # round pairs a fresh merged graph with the same other-side graph —
        # pay the longest-distance pass only once per graph.
        self.levels_first = first.levels()
        self.levels_second = second.levels()
        #: ``l(v)`` of each real node, in graph node order (float, may be inf).
        self.node_levels_first = l1 = np.array(
            [self.levels_first[node] for node in first.nodes], dtype=float
        )
        self.node_levels_second = l2 = np.array(
            [self.levels_second[node] for node in second.nodes], dtype=float
        )
        #: ``h`` for each real pair: min(l(v1), l(v2)), shape (|V1|, |V2|).
        self.pair_levels = np.minimum(l1[:, None], l2[None, :])
        #: every pair is fixed after this many iterations (may be inf).
        self.global_bound = min(max_finite_level(self.levels_first),
                                max_finite_level(self.levels_second))

    def active_mask(self, iteration: int) -> np.ndarray:
        """Boolean mask of pairs that may still change at *iteration*.

        Iterations are 1-based; a pair with level ``h`` changes for the
        last time at iteration ``h``, so it is active while
        ``iteration <= h``.
        """
        return self.pair_levels >= iteration

    def all_fixed_after(self, iteration: int) -> bool:
        """True when no pair can change at iterations beyond *iteration*."""
        return not math.isinf(self.global_bound) and iteration >= self.global_bound


def prefix_schedule(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort order under which every iteration's active set is a prefix.

    Returns ``(order, sorted_levels)`` where *order* stably sorts *levels*
    descending.  A pair with level ``h`` is active while ``iteration <= h``
    (see :meth:`ConvergenceSchedule.active_mask`), so once items are laid
    out in this order the active population at iteration ``n`` is exactly
    the first :func:`active_prefix_length` entries.  The EMS kernel sorts
    each side's *nodes* this way: a pair is active while
    ``min(l(v1), l(v2)) >= n``, i.e. while ``l(v1) >= n`` and
    ``l(v2) >= n``, so the active pairs form the prefix rectangle of the
    two sorted node lists, and its in-edges (grouped by target node in
    the same order) are an edge prefix on each side.  Pruning is then two
    slices, and frozen pairs cost no scratch memory either.
    """
    order = np.argsort(-levels, kind="stable")
    return order, levels[order]


def active_prefix_length(sorted_levels: np.ndarray, iteration: int) -> int:
    """How many of the descending-sorted *sorted_levels* are still active.

    ``sorted_levels`` must come from :func:`prefix_schedule`; the result
    counts pairs with ``level >= iteration``.
    """
    return int(np.searchsorted(-sorted_levels, -iteration, side="right"))
