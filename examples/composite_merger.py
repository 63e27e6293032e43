"""Composite event matching on a synthetic manufacturing integration.

One plant logs "Setup Machine" as two sub-steps while the other logs it
as one event; same for a second activity.  The script discovers the SEQ
candidates, runs the greedy merge loop with and without the paper's Uc
and Bd prunings, and shows the recovered m:n correspondences and the
pruning savings (the Figure 12 story in miniature).

Run:  python examples/composite_merger.py
"""

from repro import CompositeMatcher, EMSConfig, evaluate
from repro.core.composite import discover_candidates
from repro.graph import CountTable
from repro.synthesis.corpus import make_log_pair

pair = make_log_pair(
    "manufacturing",
    size=8,
    testbed="COMPOSITE",
    seed=9,
    traces_per_log=100,
    composite_splits=2,
    structural_swaps=0,
)

print("=== composite candidates (SEQ patterns) in the first log ===")
table = CountTable.from_log(pair.log_first)
for run in discover_candidates(table, min_confidence=0.9, max_run_length=3):
    print("  ", " -> ".join(run))
print()

for use_unchanged, use_bounds, label in [
    (False, False, "no pruning"),
    (True, True, "Uc + Bd pruning"),
]:
    matcher = CompositeMatcher(
        EMSConfig(),
        delta=0.002,
        min_confidence=0.9,
        max_run_length=3,
        use_unchanged=use_unchanged,
        use_bounds=use_bounds,
    )
    result = matcher.match(pair.log_first, pair.log_second)
    print(f"=== greedy merge, {label} ===")
    print(f"  accepted composites: "
          f"{[list(run) for run in result.accepted_first + result.accepted_second]}")
    print(f"  formula-(1) evaluations: {result.stats.pair_updates}")
    print(f"  candidate evaluations aborted early: {result.stats.evaluations_aborted}")
    print(f"  average similarity: {result.average:.3f}")
    print()

# Expand the final matching into correspondences and score against truth.
from repro.matchers import EMSCompositeMatcher

outcome = EMSCompositeMatcher(
    delta=0.002, min_confidence=0.9, max_run_length=3
).match(pair.log_first, pair.log_second)
print("=== recovered correspondences ===")
for correspondence in sorted(outcome.correspondences, key=lambda c: min(c.left)):
    marker = "  [m:n]" if correspondence.is_composite() else ""
    print(f"  {' + '.join(sorted(correspondence.left)):45s} <-> "
          f"{' + '.join(sorted(correspondence.right))}{marker}")
print(evaluate(pair.truth, outcome.correspondences))
