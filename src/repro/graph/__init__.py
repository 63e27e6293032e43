"""Dependency-graph substrate: Definition 1 plus the artificial event."""

from repro.graph.dependency import ARTIFICIAL, DependencyGraph
from repro.graph.levels import longest_distances, max_finite_level, patched_longest_distances
from repro.graph.merge import (
    CountTable,
    MergeDelta,
    composite_name,
    expand_members,
    merge_counts,
    merge_runs,
    merged_graph_from_delta,
    merged_member_map,
    rewrite_log,
)

__all__ = [
    "ARTIFICIAL",
    "DependencyGraph",
    "longest_distances",
    "max_finite_level",
    "patched_longest_distances",
    "CountTable",
    "MergeDelta",
    "merge_counts",
    "merge_runs",
    "merged_graph_from_delta",
    "merged_member_map",
    "rewrite_log",
    "composite_name",
    "expand_members",
]
