"""Inspecting event data before matching: footprints and graph sizes.

Before trusting any automated matching, an integrator wants to *see* the
behavioral structure of both logs.  This script prints the footprint
matrices (the classic process-mining order relations) and the size of
each dependency graph for both logs of the paper's Figure 1 example.

Run:  python examples/inspect_graphs.py
"""

from repro import DependencyGraph
from repro.logs.footprint import compute_footprint
from repro.synthesis.examples import figure1_logs

log_first, log_second, _ = figure1_logs()

for log in (log_first, log_second):
    print(f"=== {log.name} ===")
    footprint = compute_footprint(log)
    print(footprint.render())
    graph = DependencyGraph.from_log(log)
    print(
        f"\n{len(graph.nodes)} events, {len(graph.real_edges)} edges "
        f"(reciprocal edges = concurrency, e.g. E || F)\n"
    )

print("Footprints already reveal the story: both logs share a chain with")
print("one concurrent pair, but L2 has an extra always-first event (1) —")
print("the dislocated 'Order Accepted' step the matcher must handle.")
