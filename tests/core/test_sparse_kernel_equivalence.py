"""Differential tests: the production EMS kernel against the per-pair oracle.

The production kernel (:class:`repro.core.ems._DirectionalRun`) evaluates
formula (1) as segmented reductions over one edge-pair grid, chunk by
chunk inside a Proposition-2 prefix rectangle.  It must remain an
observationally identical implementation of the per-pair reference loop
in ``tests/ems_oracle.py``: same similarities (to within 1e-12 at
float64), same ``iterations``, same ``pair_updates`` — across pruning
on/off (including the Proposition-2 freeze order), edge weights, label
blending, fixed (Uc) pairs, estimation, the Bd abort and mid-iteration
budget exhaustion, where even the partially-updated best-so-far state
must match pair for pair.  The suite also pins:

* **tiny chunks** — with the chunk target forced down to a few elements
  every chunk is one or a few nodes; results must not change;
* **the grid layout** — nodes without real predecessors (empty
  ``reduceat`` segments), a node larger than the chunk budget, cycles,
  self-loops and Uc-fixed pairs scattered inside the active rectangle;
* **float32** — a narrowed run stays within 1e-5 of the float64 answer
  and preserves the per-row best match up to ties;
* **the agreement table** — ``C`` gathered from the distinct-weight table
  equals ``edge_agreement`` on the edges' own weights bit for bit, in
  every active prefix, at both dtypes;
* **warm starts** — the incremental composite search produces the same
  trajectory on the production kernel as on the oracle;
* **the slot route** — large grids reduce over degree-ordered in-edge
  slots instead of ``reduceat``.  The oracle comparisons above are re-run
  with every grid forced onto it, at several chunk targets, and on a pair
  whose pruned rectangle crosses the route cut mid-run.
"""

import math
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

import repro.core.ems as ems_module
from repro.core.composite import CompositeMatcher
from repro.core.config import EMSConfig
from repro.core.ems import EMSEngine, WarmStart, edge_agreement
from repro.graph.dependency import ARTIFICIAL, DependencyGraph
from repro.logs.log import EventLog
from repro.runtime.budget import MatchBudget
from repro.runtime.degrade import DegradationPolicy
from repro.similarity.labels import QGramCosineSimilarity
from repro.synthesis.corpus import build_scalability_pair
from tests.composite_oracle import ColdCompositeMatcher
from tests.ems_oracle import reference_kernel
from tests.property import test_property_ems as property_ems

ATOL = 1e-12
FLOAT32_ATOL = 1e-5


def graphs_for(size: int, seed: int) -> tuple[DependencyGraph, DependencyGraph]:
    pair = build_scalability_pair(size, seed=seed, traces_per_log=30)
    return (
        DependencyGraph.from_log(pair.log_first),
        DependencyGraph.from_log(pair.log_second),
    )


@pytest.fixture(scope="module")
def graphs_12() -> tuple[DependencyGraph, DependencyGraph]:
    return graphs_for(12, seed=11)


@pytest.fixture()
def streaming_mode(monkeypatch):
    """Force the kernel onto tiny chunks (one or a few nodes each)."""
    monkeypatch.setattr(ems_module, "_SPARSE_CHUNK_TARGET", 7)


def assert_equivalent(result_sparse, result_other, atol=ATOL) -> None:
    assert result_sparse.iterations == result_other.iterations
    assert result_sparse.pair_updates == result_other.pair_updates
    assert result_sparse.converged == result_other.converged
    assert result_sparse.estimated == result_other.estimated
    np.testing.assert_allclose(
        result_sparse.matrix.values, result_other.matrix.values, rtol=0, atol=atol
    )
    assert set(result_sparse.directional) == set(result_other.directional)
    for name, matrix in result_sparse.directional.items():
        np.testing.assert_allclose(
            matrix.values, result_other.directional[name].values, rtol=0, atol=atol
        )


def kernel(oracle: bool):
    """A context running the fixpoint on the oracle, or on production."""
    return reference_kernel() if oracle else nullcontext()


def run_kernels(graphs, config_kwargs, oracles=(False, True),
                label=None, **similarity_kwargs):
    results = []
    for oracle in oracles:
        engine = EMSEngine(EMSConfig(**config_kwargs), label)
        with kernel(oracle):
            results.append(engine.similarity(*graphs, **similarity_kwargs))
    return results


class TestExactEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("use_pruning", [True, False])
    def test_random_graphs(self, seed, use_pruning):
        graphs = graphs_for(8 + 2 * seed, seed=seed)
        assert_equivalent(*run_kernels(graphs, {"use_pruning": use_pruning}))

    @pytest.mark.parametrize("use_edge_weights", [True, False])
    def test_edge_weight_ablation(self, graphs_12, use_edge_weights):
        assert_equivalent(
            *run_kernels(graphs_12, {"use_edge_weights": use_edge_weights})
        )

    @pytest.mark.parametrize("direction", ["forward", "backward", "both"])
    def test_directions(self, graphs_12, direction):
        assert_equivalent(*run_kernels(graphs_12, {"direction": direction}))

    def test_label_blending(self, graphs_12):
        assert_equivalent(
            *run_kernels(graphs_12, {"alpha": 0.5}, label=QGramCosineSimilarity())
        )

    def test_fixed_pairs_seeded(self, graphs_12):
        first, second = graphs_12
        fixed_forward = {
            (first.nodes[0], second.nodes[0]): 0.9,
            (first.nodes[1], second.nodes[2]): 0.25,
        }
        fixed_backward = {(first.nodes[2], second.nodes[1]): 0.5}
        assert_equivalent(
            *run_kernels(
                graphs_12, {},
                fixed_forward=fixed_forward, fixed_backward=fixed_backward,
            )
        )

    @pytest.mark.parametrize("exact_iterations", [0, 2])
    def test_estimation(self, graphs_12, exact_iterations):
        assert_equivalent(
            *run_kernels(graphs_12, {"estimation_iterations": exact_iterations})
        )


class TestStreamingMode:
    """The chunk size must not change any result."""

    @pytest.mark.parametrize("seed", range(3))
    def test_streaming_matches_reference(self, streaming_mode, seed):
        graphs = graphs_for(8 + 2 * seed, seed=seed)
        assert_equivalent(*run_kernels(graphs, {}))

    def test_tiny_chunks_match_default_chunks(self, graphs_12, monkeypatch):
        default = run_kernels(graphs_12, {}, oracles=(False,))[0]
        monkeypatch.setattr(ems_module, "_SPARSE_CHUNK_TARGET", 7)
        tiny = run_kernels(graphs_12, {}, oracles=(False,))[0]
        assert_equivalent(tiny, default)

    def test_streaming_under_pruning_and_labels(self, streaming_mode, graphs_12):
        assert_equivalent(
            *run_kernels(
                graphs_12, {"alpha": 0.5, "use_pruning": True},
                label=QGramCosineSimilarity(),
            )
        )


def explicit_graph(names: str, edges: list[str], seed: int) -> DependencyGraph:
    """A graph over one-letter *names* with ``"ab"`` meaning edge a → b."""
    rng = np.random.default_rng(seed)
    return DependencyGraph(
        {name: float(rng.uniform(0.2, 1.0)) for name in names},
        {(edge[0], edge[1]): float(rng.uniform(0.05, 1.0)) for edge in edges},
    )


def step_counts(graphs, config: EMSConfig) -> list[int]:
    """Pair updates of each forward iteration of an unbudgeted run."""
    run = ems_module._DirectionalRun(
        *graphs, config, np.zeros((len(graphs[0].nodes), len(graphs[1].nodes)))
    )
    counts = []
    while not run.finished():
        before = run.pair_updates
        run.advance()
        counts.append(run.pair_updates - before)
    return counts


#: Nodes b, d and f have no real predecessor; by name they sit between
#: nodes that do, so their empty edge segments are interleaved in the grid.
INTERLEAVED = ("abcdefg", ["ba", "bc", "dc", "de", "fe", "fg", "ag", "ce"])
#: Every node has a real predecessor.
DENSE = ("uvwxy", ["uv", "vw", "wx", "xy", "yu", "uw", "vx"])


class TestEdgePairGrid:
    """Layout corners of the edge-pair grid, each against the oracle."""

    @pytest.mark.parametrize("sides", ["first", "both"])
    @pytest.mark.parametrize("use_pruning", [True, False])
    def test_nodes_without_real_predecessors(self, sides, use_pruning):
        first = explicit_graph(*INTERLEAVED, seed=1)
        second = explicit_graph(*(INTERLEAVED if sides == "both" else DENSE), seed=2)
        assert_equivalent(*run_kernels((first, second), {"use_pruning": use_pruning}))

    @pytest.mark.parametrize("sides", ["first", "both"])
    def test_empty_segments_interleaved_in_level_order(self, sides):
        """Empty segments between non-empty ones in the level order.

        True levels put every node without real predecessors last (they
        all have ``l(v) = 1``), so the test seeds levels that interleave
        them with the others.  Kernel and oracle read the same schedule,
        so they must still agree exactly.
        """
        graphs = [explicit_graph(*INTERLEAVED, seed=3)]
        graphs.append(explicit_graph(*(INTERLEAVED if sides == "both" else DENSE), seed=4))
        for graph in graphs:
            for side in (graph, graph.reversed()):
                levels = {ARTIFICIAL: 0.0}
                for k, node in enumerate(side.nodes):
                    levels[node] = float(len(side.nodes) - k)
                side._seed_levels(levels)
        assert_equivalent(*run_kernels(tuple(graphs), {}))

    @pytest.mark.parametrize("target", [1, 9, 30])
    @pytest.mark.parametrize("use_pruning", [True, False])
    def test_node_larger_than_chunk_budget(self, monkeypatch, target, use_pruning):
        # h has nine in-edges: more edge rows than any chunk budget here.
        hub = ("abcdefghij", ["ah", "bh", "ch", "dh", "eh", "fh", "gh", "ih", "jh",
                              "ab", "bc", "hj"])
        graphs = explicit_graph(*hub, seed=5), explicit_graph(*DENSE, seed=6)
        monkeypatch.setattr(ems_module, "_SPARSE_CHUNK_TARGET", target)
        assert_equivalent(*run_kernels(graphs, {"use_pruning": use_pruning}))

    @pytest.mark.parametrize("use_pruning", [True, False])
    def test_cyclic_graphs(self, use_pruning):
        first = DependencyGraph.from_log(EventLog([list("abcab"), list("bcad")] * 3))
        second = DependencyGraph.from_log(EventLog([list("xyzx"), list("zyw")] * 3))
        assert math.isinf(first.levels()["a"])
        assert_equivalent(*run_kernels((first, second), {"use_pruning": use_pruning}))

    @pytest.mark.parametrize("use_edge_weights", [True, False])
    def test_self_loops(self, use_edge_weights):
        first = explicit_graph("abcd", ["aa", "ab", "bb", "bc", "cd"], seed=7)
        second = explicit_graph("wxyz", ["ww", "wx", "xy", "yy", "yz", "zz"], seed=8)
        assert_equivalent(
            *run_kernels((first, second), {"use_edge_weights": use_edge_weights})
        )

    @pytest.mark.parametrize("fixed_share", [0.0, 0.3, 1.0])
    def test_scattered_fixed_pairs(self, graphs_12, fixed_share):
        """Uc-fixed pairs inside the rectangle, with whole fixed rows/columns."""
        first, second = graphs_12
        rng = np.random.default_rng(9)
        shape = (len(first.nodes), len(second.nodes))
        warm = {}
        for name in ("fixed_forward", "fixed_backward"):
            fixed = rng.random(shape) < fixed_share
            fixed[[2, 5], :] = True  # wholly fixed rows
            fixed[:, [0, 7]] = True  # wholly fixed columns
            warm[name] = WarmStart(values=rng.random(shape), dirty=~fixed)
        assert_equivalent(*run_kernels(graphs_12, {}, **warm))

    def test_fixed_pairs_dict_with_whole_row(self, graphs_12):
        first, second = graphs_12
        fixed = {(first.nodes[3], node): 0.4 for node in second.nodes}
        fixed[first.nodes[6], second.nodes[2]] = 0.7
        assert_equivalent(*run_kernels(graphs_12, {}, fixed_forward=fixed))

    @pytest.mark.parametrize("warm", [False, True])
    def test_budget_cut_inside_pruned_iterations(self, graphs_12, warm):
        """Caps that trip halfway through iterations whose rectangle shrank."""
        counts = step_counts(graphs_12, EMSConfig())
        full = counts[0]
        caps = [
            sum(counts[:k]) + counts[k] // 2
            for k in range(1, len(counts)) if 1 < counts[k] < full
        ]
        assert caps, "pruning must shrink the rectangle on this pair"
        kwargs = {}
        if warm:
            first, second = graphs_12
            dirty = np.ones((len(first.nodes), len(second.nodes)), dtype=bool)
            dirty[1, :] = False
            dirty[4, 3] = dirty[8, 9] = False
            kwargs["fixed_forward"] = WarmStart(np.full(dirty.shape, 0.3), dirty)
        for cap in caps[:4]:
            results = []
            for oracle in (False, True):
                meter = MatchBudget(max_pair_updates=cap).start()
                with kernel(oracle):
                    result = EMSEngine().similarity(
                        *graphs_12, meter=meter,
                        degradation=DegradationPolicy.partial_only(), **kwargs
                    )
                results.append((result, result.stage, meter.pair_updates_spent))
            (sparse, stage_sparse, spent_sparse), (ref, stage_ref, spent_ref) = results
            assert stage_sparse == stage_ref == "partial"
            assert spent_sparse == spent_ref
            assert_equivalent(sparse, ref)


def built_grid(graphs, config: EMSConfig):
    """The edge-pair grid of a forward run, as its first step builds it."""
    first, second = graphs
    run = ems_module._DirectionalRun(
        first, second, config, np.zeros((len(first.nodes), len(second.nodes)))
    )
    run.step()
    return run._grid


def complete_graphs() -> tuple[DependencyGraph, DependencyGraph]:
    """Every ordered pair of distinct nodes is an edge."""
    edges = [a + b for a in "pqrstu" for b in "pqrstu" if a != b]
    return explicit_graph("pqrstu", edges, seed=12), explicit_graph("pqrstu", edges, seed=13)


def repeated_weight_graphs() -> tuple[DependencyGraph, DependencyGraph]:
    """Logs of few trace variants: many edges share a frequency."""
    first = DependencyGraph.from_log(
        EventLog([list("abcd")] * 4 + [list("acbd")] * 4 + [list("abd")] * 2)
    )
    second = DependencyGraph.from_log(
        EventLog([list("wxyz")] * 3 + [list("wyxz")] * 3 + [list("wxz")] * 4)
    )
    return first, second


def edge_weights(graph: DependencyGraph, side, dtype: str) -> np.ndarray:
    """The weight of each in-edge of a grid side, in grid order, read from
    the graph edge by edge."""
    targets = np.repeat(side.nodes, np.diff(side.offsets))
    nodes = graph.nodes
    return np.array(
        [graph.edge_frequency(nodes[source], nodes[target])
         for source, target in zip(side.sources, targets)],
        dtype=dtype,
    )


class TestAgreementTable:
    """``C`` from the distinct-weight table is ``edge_agreement``, bitwise."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("shape", ["random", "repeated", "complete"])
    def test_gathered_table_equals_formula(self, shape, dtype):
        if shape == "random":
            graphs = graphs_for(12, seed=11)
        elif shape == "repeated":
            graphs = repeated_weight_graphs()
        else:
            graphs = complete_graphs()
        config = EMSConfig(dtype=dtype)
        grid = built_grid(graphs, config)
        first, second = grid.first, grid.second
        weights_first = edge_weights(graphs[0], first, dtype)
        weights_second = edge_weights(graphs[1], second, dtype)
        if shape == "repeated":
            assert len(first.distinct) < len(weights_first)
            assert len(second.distinct) < len(weights_second)
        assert grid.agreement.shape == (len(first.distinct), len(second.distinct))
        assert grid.agreement.dtype == np.dtype(dtype)
        prefixes = {
            (first.active(n, True), second.active(n, True))
            for n in range(1, len(first.nodes) + len(second.nodes) + 2)
        }
        prefixes.add((len(first.nodes), len(second.nodes)))
        for count_first, count_second in sorted(prefixes):
            rows = slice(0, first.offsets[count_first])
            edges_second = second.offsets[count_second]
            gathered = grid.agreement[first.weight_of[rows]][
                :, second.weight_of[:edges_second]
            ]
            expected = edge_agreement(
                weights_first[rows], weights_second[:edges_second], config.c
            )
            assert gathered.dtype == expected.dtype == np.dtype(dtype)
            assert np.array_equal(gathered, expected)

    def test_complete_graphs_match_oracle(self):
        assert_equivalent(*run_kernels(complete_graphs(), {}))

    def test_without_edge_weights_no_table_and_constant_c(self):
        graphs = repeated_weight_graphs()
        grid = built_grid(graphs, EMSConfig(use_edge_weights=False))
        assert grid.agreement is None
        # c enters every contribution: a different c moves the answer, and
        # each one equals the oracle's.
        results = [
            run_kernels(graphs, {"use_edge_weights": False, "c": c})
            for c in (0.8, 0.5)
        ]
        for production, oracle in results:
            assert_equivalent(production, oracle)
        assert not np.allclose(results[0][0].matrix.values, results[1][0].matrix.values)


class TestAbortEquivalence:
    @pytest.mark.parametrize("abort_below", [0.0, 0.4, 0.99])
    def test_bounded_abort(self, graphs_12, abort_below):
        results = []
        for oracle in (False, True):
            with kernel(oracle):
                results.append(
                    EMSEngine().similarity(*graphs_12, abort_below=abort_below)
                )
        sparse, ref = results
        assert sparse.aborted == ref.aborted
        assert_equivalent(sparse, ref)


class TestBudgetEquivalence:
    """Mid-iteration exhaustion must leave the identical best-so-far state."""

    #: Caps chosen to trip at the start, inside the first iteration, and
    #: deep inside later iterations of the 12-event fixpoint.
    CAPS = [0, 1, 53, 500, 1777]

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize(
        "policy", [DegradationPolicy.full(), DegradationPolicy.partial_only()],
        ids=["estimated", "partial"],
    )
    def test_degraded_states_match(self, graphs_12, cap, policy):
        results = []
        spent = []
        for oracle in (False, True):
            meter = MatchBudget(max_pair_updates=cap).start()
            with kernel(oracle):
                result = EMSEngine().similarity(
                    *graphs_12, meter=meter, degradation=policy
                )
            results.append((result, result.stage, result.reason))
            spent.append(meter.pair_updates_spent)
        (sparse, stage_sparse, reason_sparse), (ref, stage_ref, reason_ref) = results
        assert stage_sparse == stage_ref
        assert reason_sparse == reason_ref
        assert spent[0] == spent[1]
        assert_equivalent(sparse, ref)

    def test_streaming_budget_cut_matches(self, streaming_mode, graphs_12):
        results = []
        for oracle in (False, True):
            meter = MatchBudget(max_pair_updates=53).start()
            with kernel(oracle):
                result = EMSEngine().similarity(
                    *graphs_12, meter=meter, degradation=DegradationPolicy.partial_only()
                )
            results.append(result)
        assert_equivalent(*results)

    def test_exhaustion_raises_identically_without_ladder(self, graphs_12):
        for oracle in (False, True):
            meter = MatchBudget(max_pair_updates=10).start()
            with kernel(oracle), pytest.raises(Exception) as excinfo:
                EMSEngine().similarity(*graphs_12, meter=meter)
            assert excinfo.value.reason == "pair-updates"
            assert meter.pair_updates_spent == 11

    def test_uncapped_budget_charges_identically(self, graphs_12):
        meters = []
        for oracle in (False, True):
            meter = MatchBudget(max_pair_updates=10**9).start()
            with kernel(oracle):
                EMSEngine().similarity(*graphs_12, meter=meter)
            meters.append(meter)
        assert meters[0].pair_updates_spent == meters[1].pair_updates_spent


class TestFloat32:
    """dtype="float32" is a 1e-5 approximation, not a different answer."""

    @pytest.mark.parametrize("oracle", [False, True], ids=["sparse", "reference"])
    def test_close_to_float64(self, graphs_12, oracle):
        wide, narrow = (
            run_kernels(graphs_12, {"dtype": dtype}, oracles=(oracle,))[0]
            for dtype in ("float64", "float32")
        )
        assert narrow.pair_updates == wide.pair_updates or narrow.converged
        np.testing.assert_allclose(
            narrow.matrix.values, wide.matrix.values, rtol=0, atol=FLOAT32_ATOL
        )

    def test_kernels_agree_at_float32(self, graphs_12):
        results = run_kernels(graphs_12, {"dtype": "float32"})
        assert results[0].pair_updates == results[1].pair_updates
        np.testing.assert_allclose(
            results[0].matrix.values, results[1].matrix.values,
            rtol=0, atol=FLOAT32_ATOL,
        )

    def test_rank_preserving_per_row(self, graphs_12):
        """float32's per-row best match is a float64 optimum up to ties."""
        wide = EMSEngine().similarity(*graphs_12)
        narrow = EMSEngine(EMSConfig(dtype="float32")).similarity(*graphs_12)
        values64 = wide.matrix.values
        choice32 = np.argmax(narrow.matrix.values, axis=1)
        chosen = values64[np.arange(values64.shape[0]), choice32]
        # The row maximum at float64 may differ only by a near-tie the
        # narrower arithmetic was free to break the other way.
        assert np.all(values64.max(axis=1) - chosen <= 1e-6)


class TestIncrementalCompositeParity:
    """Warm-started fixpoints must behave identically on both kernels."""

    KNOBS = dict(delta=0.005, min_confidence=0.9, max_run_length=2)

    def test_sparse_matches_oracle_incremental(self, fig1_logs):
        results = []
        for oracle in (False, True):
            with kernel(oracle):
                results.append(
                    CompositeMatcher(EMSConfig(), **self.KNOBS).match(*fig1_logs)
                )
        sparse, reference = results
        assert sparse.accepted_first == reference.accepted_first
        assert sparse.accepted_second == reference.accepted_second
        assert sparse.stats.pair_updates == reference.stats.pair_updates
        np.testing.assert_allclose(
            sparse.matrix.values, reference.matrix.values, rtol=0, atol=ATOL
        )

    def test_sparse_warm_equals_cold(self, fig1_logs):
        warm = CompositeMatcher(EMSConfig(), **self.KNOBS).match(*fig1_logs)
        cold = ColdCompositeMatcher(EMSConfig(), **self.KNOBS).match(*fig1_logs)
        assert warm.accepted_first == cold.accepted_first
        assert warm.accepted_second == cold.accepted_second
        assert warm.stats.pair_updates == cold.stats.pair_updates
        np.testing.assert_allclose(
            warm.matrix.values, cold.matrix.values, rtol=0, atol=ATOL
        )


def _reduceat_forbidden(*args):
    raise AssertionError("a grid took the reduceat route")


@contextmanager
def slot_route_only():
    """Every grid takes the slot route: the cut at 0, ``reduceat`` refused."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ems_module, "_SLOT_ROUTE_CELLS", 0)
        patch.setattr(ems_module._DirectionalRun, "_reduce", _reduceat_forbidden)
        yield


class SlotRoute:
    """Runs the inherited oracle comparisons with every grid on the slot route."""

    @pytest.fixture(autouse=True)
    def _slot_route_only(self):
        with slot_route_only():
            yield


class TestExactEquivalenceOnSlots(SlotRoute, TestExactEquivalence):
    pass


class TestEdgePairGridOnSlots(SlotRoute, TestEdgePairGrid):
    pass


class TestAgreementTableOnSlots(SlotRoute, TestAgreementTable):
    pass


class TestBudgetEquivalenceOnSlots(SlotRoute, TestBudgetEquivalence):
    pass


class TestFloat32OnSlots(SlotRoute, TestFloat32):
    pass


def test_property_kernel_matches_oracle_on_slots():
    with slot_route_only():
        property_ems.test_kernel_matches_oracle()


def hub_graphs() -> tuple[DependencyGraph, DependencyGraph]:
    """A nine-in-edge hub on each side, among nodes of in-degree 0 to 3."""
    first = explicit_graph("abcdefghij", ["ah", "bh", "ch", "dh", "eh", "fh", "gh", "ih",
                                          "jh", "ab", "bc", "hj", "cj", "dj", "ad"], seed=14)
    second = explicit_graph("klmnopqrst", ["kt", "lt", "mt", "nt", "ot", "pt", "qt", "rt",
                                           "st", "kl", "lm", "mk", "tn", "ln"], seed=15)
    return first, second


class TestSlotChunks:
    """Slot-route chunks of one node up to several nodes of mixed degree."""

    @pytest.mark.parametrize("target", [1, 7, 30])
    @pytest.mark.parametrize("shape", ["hub", "random", "complete", "interleaved"])
    @pytest.mark.parametrize("use_pruning", [True, False])
    def test_chunk_targets(self, monkeypatch, target, shape, use_pruning):
        if shape == "hub":
            graphs = hub_graphs()
        elif shape == "random":
            graphs = graphs_for(12, seed=11)
        elif shape == "complete":
            graphs = complete_graphs()
        else:
            graphs = explicit_graph(*INTERLEAVED, seed=1), explicit_graph(*DENSE, seed=2)
        monkeypatch.setattr(ems_module, "_SPARSE_CHUNK_TARGET", target)
        with slot_route_only():
            assert_equivalent(*run_kernels(graphs, {"use_pruning": use_pruning}))

    @pytest.mark.parametrize("target", [1, 7, 30])
    def test_hub_above_budget_with_warm_start_and_labels(self, monkeypatch, target):
        first, second = hub_graphs()
        dirty = np.ones((len(first.nodes), len(second.nodes)), dtype=bool)
        dirty[7, :4] = False  # pairs of the hub h
        dirty[:, 9] = False   # the whole column of the hub t
        warm = WarmStart(np.full(dirty.shape, 0.4), dirty)
        monkeypatch.setattr(ems_module, "_SPARSE_CHUNK_TARGET", target)
        with slot_route_only():
            assert_equivalent(
                *run_kernels(
                    (first, second), {"alpha": 0.5}, label=QGramCosineSimilarity(),
                    fixed_forward=warm, fixed_backward=warm,
                )
            )


def test_route_cut_crossed_mid_run(monkeypatch):
    """Pruning shrinks this pair's rectangle below the real cut mid-run."""
    graphs = graphs_for(16, seed=0)
    routes = []
    for name in ("_reduce", "_reduce_slots"):
        method = getattr(ems_module._DirectionalRun, name)

        def counted(self, *args, _method=method, _name=name):
            routes.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(ems_module._DirectionalRun, name, counted)
    production, oracle = run_kernels(graphs, {"use_pruning": True, "direction": "forward"})
    assert_equivalent(production, oracle)
    switch = routes.index("_reduce")
    assert switch > 0 and set(routes[:switch]) == {"_reduce_slots"}
    assert set(routes[switch:]) == {"_reduce"}
