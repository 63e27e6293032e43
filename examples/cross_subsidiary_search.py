"""Cross-subsidiary process integration: the paper's motivating use case.

The introduction motivates event matching with a bus manufacturer that
integrates 31 subsidiaries' OA systems into a unified warehouse: to
query or analyze across subsidiaries, events must first be matched.
This example integrates three functional areas across two subsidiaries
into a single *activity dictionary* — a unified vocabulary mapping each
local event name to a global activity — and then answers a simple
cross-subsidiary query over it.

Run:  python examples/cross_subsidiary_search.py
"""

from repro import EMSMatcher, evaluate
from repro.synthesis.corpus import make_log_pair

AREAS = ["order-processing", "procurement", "customer-support"]

dictionary: dict[str, str] = {}  # local activity name -> global id
matched_pairs = 0

print("=== building the unified activity dictionary ===")
for index, area in enumerate(AREAS):
    pair = make_log_pair(area, size=9, testbed="DS-B", seed=100 + index,
                         traces_per_log=100)
    outcome = EMSMatcher().match(pair.log_first, pair.log_second)
    quality = evaluate(pair.truth, outcome.correspondences)
    print(f"{area:20s}: {quality}")
    for correspondence in outcome.correspondences:
        global_id = f"{area}/{min(correspondence.left)}"
        for local in sorted(correspondence.left | correspondence.right):
            dictionary[local] = global_id
        matched_pairs += 1

print(f"\ndictionary: {len(dictionary)} local names -> "
      f"{matched_pairs} global activities across {len(AREAS)} areas")

print("\n=== cross-subsidiary query ===")
print("Which local event names denote the same business step as")
probe = next(name for name, gid in dictionary.items() if "/" in gid)
target = dictionary[probe]
aliases = sorted(name for name, gid in dictionary.items() if gid == target)
print(f"  {probe!r}?")
for alias in aliases:
    print(f"  -> {alias}")
