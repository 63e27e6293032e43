"""Property-based tests of the EMS similarity invariants.

These check the paper's theorems on random logs: monotone convergence
(Theorem 1), early-convergence pruning being lossless (Proposition 2),
bound soundness (Proposition 6 / Corollary 7), and symmetry.  One
property pins the production kernel to the per-pair oracle on small
random graphs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import matrix_upper_bound
from repro.core.config import EMSConfig
from repro.core.ems import EMSEngine, WarmStart, iteration_trace
from repro.core.pruning import ConvergenceSchedule
from repro.graph.dependency import DependencyGraph
from repro.logs.log import EventLog
from tests.ems_oracle import reference_kernel

activity = st.sampled_from(list("abcdefg"))
trace_strategy = st.lists(activity, min_size=1, max_size=6)
log_strategy = st.lists(trace_strategy, min_size=1, max_size=10)
FORWARD = EMSConfig(alpha=1.0, c=0.8, direction="forward")


def graphs_from(traces_first, traces_second):
    return (
        DependencyGraph.from_log(EventLog(traces_first, name="g1")),
        DependencyGraph.from_log(EventLog(traces_second, name="g2")),
    )


@given(log_strategy, log_strategy)
@settings(max_examples=30, deadline=None)
def test_similarity_bounded_and_converged(traces_first, traces_second):
    graph_first, graph_second = graphs_from(traces_first, traces_second)
    result = EMSEngine(EMSConfig()).similarity(graph_first, graph_second)
    values = result.matrix.values
    assert (values >= 0.0).all()
    assert (values <= 1.0 + 1e-9).all()
    assert result.converged


@given(log_strategy, log_strategy)
@settings(max_examples=25, deadline=None)
def test_iteration_monotone(traces_first, traces_second):
    graph_first, graph_second = graphs_from(traces_first, traces_second)
    snapshots = iteration_trace(graph_first, graph_second, FORWARD, iterations=4)
    for earlier, later in zip(snapshots, snapshots[1:]):
        assert (later.values >= earlier.values - 1e-12).all()


@given(log_strategy, log_strategy)
@settings(max_examples=20, deadline=None)
def test_pruning_lossless(traces_first, traces_second):
    graph_first, graph_second = graphs_from(traces_first, traces_second)
    pruned = EMSEngine(EMSConfig(use_pruning=True)).similarity(graph_first, graph_second)
    unpruned = EMSEngine(EMSConfig(use_pruning=False)).similarity(
        graph_first, graph_second
    )
    np.testing.assert_allclose(
        pruned.matrix.values, unpruned.matrix.values, atol=2e-3
    )


@given(log_strategy, log_strategy)
@settings(max_examples=20, deadline=None)
def test_symmetry_of_pair_roles(traces_first, traces_second):
    """S(v1, v2) computed on (G1, G2) equals S(v2, v1) on (G2, G1)."""
    graph_first, graph_second = graphs_from(traces_first, traces_second)
    forward = EMSEngine(EMSConfig()).similarity(graph_first, graph_second)
    swapped = EMSEngine(EMSConfig()).similarity(graph_second, graph_first)
    np.testing.assert_allclose(
        forward.matrix.values, swapped.matrix.values.T, atol=1e-9
    )


@given(log_strategy, log_strategy, st.integers(min_value=1, max_value=3))
@settings(max_examples=20, deadline=None)
def test_upper_bounds_sound(traces_first, traces_second, k):
    graph_first, graph_second = graphs_from(traces_first, traces_second)
    exact = EMSEngine(FORWARD).similarity(graph_first, graph_second).matrix.values
    schedule = ConvergenceSchedule(graph_first, graph_second)
    snapshot = iteration_trace(graph_first, graph_second, FORWARD, iterations=k)[-1]
    bound = matrix_upper_bound(snapshot.values, k, FORWARD.decay, schedule.pair_levels)
    assert (bound >= exact - 1e-9).all()


@given(log_strategy, log_strategy)
@settings(max_examples=15, deadline=None)
def test_estimation_stays_in_unit_interval(traces_first, traces_second):
    graph_first, graph_second = graphs_from(traces_first, traces_second)
    result = EMSEngine(EMSConfig(estimation_iterations=1)).similarity(
        graph_first, graph_second
    )
    values = result.matrix.values
    assert (values >= -1e-9).all()
    assert (values <= 1.0 + 1e-9).all()


@given(log_strategy)
@settings(max_examples=20, deadline=None)
def test_self_similarity_diagonal_dominates_on_average(traces):
    """Matching a log against itself: the true (diagonal) pairs should be
    at least as similar on average as the off-diagonal ones."""
    graph = DependencyGraph.from_log(EventLog(traces, name="g"))
    result = EMSEngine(EMSConfig()).similarity(graph, graph)
    values = result.matrix.values
    n = values.shape[0]
    if n >= 2:
        diagonal = values.diagonal().mean()
        off = (values.sum() - values.diagonal().sum()) / (n * n - n)
        assert diagonal >= off - 1e-9


frequency = st.floats(min_value=0.05, max_value=1.0)


@st.composite
def small_graph(draw) -> DependencyGraph:
    """A random graph of 1-6 nodes; self-loops, cycles and sources allowed."""
    names = [f"n{k}" for k in range(draw(st.integers(1, 6)))]
    edges = draw(st.sets(st.tuples(st.sampled_from(names), st.sampled_from(names))))
    return DependencyGraph(
        {name: draw(frequency) for name in names},
        {edge: draw(frequency) for edge in sorted(edges)},
    )


@given(
    small_graph(),
    small_graph(),
    st.booleans(),
    st.booleans(),
    st.sampled_from(["forward", "backward", "both"]),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_kernel_matches_oracle(first, second, use_pruning, use_edge_weights,
                               direction, data):
    """The edge-pair grid kernel is the per-pair loop of formula (1)."""
    config = EMSConfig(
        use_pruning=use_pruning, use_edge_weights=use_edge_weights, direction=direction
    )
    shape = (len(first.nodes), len(second.nodes))
    dirty = np.array(
        data.draw(st.lists(st.booleans(), min_size=shape[0] * shape[1],
                           max_size=shape[0] * shape[1])),
        dtype=bool,
    ).reshape(shape)
    warm = WarmStart(values=np.full(shape, 0.5), dirty=dirty)
    production = EMSEngine(config).similarity(first, second, warm, warm)
    with reference_kernel():
        oracle = EMSEngine(config).similarity(first, second, warm, warm)
    assert production.iterations == oracle.iterations
    assert production.pair_updates == oracle.pair_updates
    np.testing.assert_allclose(
        production.matrix.values, oracle.matrix.values, rtol=0, atol=1e-12
    )
