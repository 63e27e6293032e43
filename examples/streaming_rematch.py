"""Incremental matching over a live trace stream.

Integrations run continuously: as the OA systems keep logging, the
matching should be refreshed without re-reading history.  This example
feeds traces one at a time into :class:`repro.logs.OnlineStatistics`
accumulators, rebuilds the dependency graphs from snapshots at
checkpoints, and shows the matching stabilizing as evidence accumulates.

Run:  python examples/streaming_rematch.py
"""

from repro import DependencyGraph, EMSMatcher, evaluate
from repro.logs import OnlineStatistics
from repro.synthesis.corpus import make_log_pair

pair = make_log_pair(
    "it-service", size=9, testbed="DS-B", seed=81, traces_per_log=200
)
stream_first = list(pair.log_first)
stream_second = list(pair.log_second)

online_first = OnlineStatistics()
online_second = OnlineStatistics()
matcher = EMSMatcher()

print(f"{'traces seen':>11s} {'f-measure':>10s} {'avg sim':>8s}")
checkpoints = [5, 10, 20, 50, 100, 200]
cursor = 0
for checkpoint in checkpoints:
    while cursor < checkpoint and cursor < len(stream_first):
        online_first.add_trace(stream_first[cursor])
        online_second.add_trace(stream_second[min(cursor, len(stream_second) - 1)])
        cursor += 1
    graph_first = DependencyGraph.from_statistics(online_first.snapshot())
    graph_second = DependencyGraph.from_statistics(online_second.snapshot())
    outcome = matcher.match_graphs(graph_first, graph_second)
    quality = evaluate(pair.truth, outcome.correspondences)
    print(f"{cursor:>11d} {quality.f_measure:>10.3f} {outcome.objective:>8.3f}")

print()
print("Early snapshots are noisy (few traces -> unstable frequencies);")
print("the matching stabilizes as the stream accumulates evidence.")
