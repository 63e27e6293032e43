"""Exhaustive optimal composite event matching (Problem 1).

Theorem 3 proves the optimal problem NP-hard, so this brute force is only
feasible for tiny candidate pools; the test suite uses it to check that
the greedy heuristic of :mod:`repro.core.composite` finds optimal or
near-optimal merge sets on small instances, and that the NP-hard objective
is computed consistently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from repro.core.config import EMSConfig
from repro.core.ems import EMSEngine
from repro.exceptions import MatchingError
from repro.graph.dependency import DependencyGraph
from repro.graph.merge import merge_runs
from repro.logs.log import EventLog
from repro.similarity.labels import LabelSimilarity

#: Safety valve: the search evaluates |packings1| * |packings2| similarity
#: matrices; refuse to start beyond this many evaluations.
MAX_EVALUATIONS = 2_000

#: Enumerating packings of more candidates than this is hopeless anyway
#: (2^n subsets); refuse before allocating anything.
MAX_CANDIDATES = 16


def non_overlapping_subsets(
    candidates: Sequence[tuple[str, ...]],
) -> list[tuple[tuple[str, ...], ...]]:
    """All pairwise-disjoint subsets of *candidates* (the set packings).

    Includes the empty packing.  Candidates are compared on their member
    sets; a subset qualifies when no activity occurs in two chosen runs.
    """
    if len(candidates) > MAX_CANDIDATES:
        raise MatchingError(
            f"cannot enumerate packings of {len(candidates)} candidates "
            f"(limit {MAX_CANDIDATES}); the problem is NP-hard — use "
            f"CompositeMatcher instead"
        )
    packings: list[tuple[tuple[str, ...], ...]] = [()]
    for size in range(1, len(candidates) + 1):
        for combo in combinations(candidates, size):
            seen: set[str] = set()
            disjoint = True
            for run in combo:
                if seen & set(run):
                    disjoint = False
                    break
                seen.update(run)
            if disjoint:
                packings.append(combo)
    return packings


@dataclass(frozen=True, slots=True)
class OptimalCompositeResult:
    """The best packing pair found by exhaustive search."""

    runs_first: tuple[tuple[str, ...], ...]
    runs_second: tuple[tuple[str, ...], ...]
    average: float
    evaluations: int


def optimal_composite_matching(
    log_first: EventLog,
    log_second: EventLog,
    candidates_first: Sequence[tuple[str, ...]],
    candidates_second: Sequence[tuple[str, ...]],
    config: EMSConfig | None = None,
    label_similarity: LabelSimilarity | None = None,
) -> OptimalCompositeResult:
    """Solve Problem 1 exactly by enumerating all packing pairs."""
    packings_first = non_overlapping_subsets(candidates_first)
    packings_second = non_overlapping_subsets(candidates_second)
    total = len(packings_first) * len(packings_second)
    if total > MAX_EVALUATIONS:
        raise MatchingError(
            f"optimal search would need {total} similarity evaluations "
            f"(limit {MAX_EVALUATIONS}); the problem is NP-hard — use "
            f"CompositeMatcher instead"
        )
    engine = EMSEngine(config, label_similarity)
    best: OptimalCompositeResult | None = None
    evaluations = 0
    for runs_first in packings_first:
        merged_first, members_first = merge_runs(log_first, runs_first)
        graph_first = DependencyGraph.from_log(merged_first, members=members_first)
        for runs_second in packings_second:
            merged_second, members_second = merge_runs(log_second, runs_second)
            graph_second = DependencyGraph.from_log(merged_second, members=members_second)
            average = engine.similarity(graph_first, graph_second).matrix.average()
            evaluations += 1
            if best is None or average > best.average:
                best = OptimalCompositeResult(runs_first, runs_second, average, evaluations)
    assert best is not None  # packings always include the empty packing
    return OptimalCompositeResult(
        best.runs_first, best.runs_second, best.average, evaluations
    )
