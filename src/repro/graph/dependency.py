"""Event dependency graphs (Definition 1) with the artificial event.

A dependency graph ``G = (V, E, f)`` has one vertex per activity, an edge
``(v1, v2)`` whenever ``v1 v2`` occur consecutively in at least one trace,
and normalized frequencies on vertices and edges.  Section 2 of the paper
extends it with an *artificial event* ``v^X`` — the virtual beginning/end
of all traces — connected to every real event in both directions with
weight ``f(v)``.  The artificial event is what lets the iterative
similarity handle *dislocated* matching: any event can act as a virtual
trace start or end.

The artificial event is always present in a :class:`DependencyGraph`; its
reserved name is :data:`ARTIFICIAL`.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.exceptions import GraphError
from repro.logs.log import RESERVED_ACTIVITY, EventLog
from repro.logs.stats import LogStatistics, compute_statistics

#: Name of the artificial event ``v^X`` (reserved; logs cannot contain it).
ARTIFICIAL = RESERVED_ACTIVITY


class DependencyGraph:
    """A labeled directed graph of events with normalized frequencies.

    Instances are immutable; all transforming operations return new graphs.

    Parameters
    ----------
    node_frequencies:
        ``f(v)`` for every real event ``v``; each must be in (0, 1].
    edge_frequencies:
        ``f(v1, v2)`` for every real edge; each must be in (0, 1].  The
        artificial edges ``(v^X, v)`` and ``(v, v^X)`` are added
        automatically with weight ``f(v)`` and must not be passed here.
    name:
        Identifier used in reports.
    members:
        For composite (merged) nodes, the set of original activities each
        node stands for.  Defaults to each node representing itself.
    """

    __slots__ = (
        "name", "_node_freq", "_edge_freq", "_pre", "_post", "_members", "_nodes",
        "_levels", "_reversed", "_pred_csr",
    )

    def __init__(
        self,
        node_frequencies: Mapping[str, float],
        edge_frequencies: Mapping[tuple[str, str], float],
        name: str = "graph",
        members: Mapping[str, frozenset[str]] | None = None,
    ):
        if not node_frequencies:
            raise GraphError("a dependency graph needs at least one real event")
        if ARTIFICIAL in node_frequencies:
            raise GraphError(f"node name {ARTIFICIAL!r} is reserved for the artificial event")
        for node, freq in node_frequencies.items():
            if not 0.0 < freq <= 1.0:
                raise GraphError(f"node frequency f({node!r}) = {freq} outside (0, 1]")
        for (source, target), freq in edge_frequencies.items():
            if source not in node_frequencies or target not in node_frequencies:
                raise GraphError(f"edge ({source!r}, {target!r}) references an unknown node")
            if not 0.0 < freq <= 1.0:
                raise GraphError(f"edge frequency f({source!r}, {target!r}) = {freq} outside (0, 1]")

        self.name = name
        self._nodes: tuple[str, ...] = tuple(sorted(node_frequencies))
        self._node_freq: dict[str, float] = dict(node_frequencies)
        self._edge_freq: dict[tuple[str, str], float] = dict(edge_frequencies)
        # Artificial edges: v^X <-> v with weight f(v), for every real v.
        for node, freq in node_frequencies.items():
            self._edge_freq[(ARTIFICIAL, node)] = freq
            self._edge_freq[(node, ARTIFICIAL)] = freq

        self._pre: dict[str, tuple[str, ...]] = {}
        self._post: dict[str, tuple[str, ...]] = {}
        pre: dict[str, list[str]] = {node: [] for node in self.all_nodes}
        post: dict[str, list[str]] = {node: [] for node in self.all_nodes}
        for source, target in self._edge_freq:
            post[source].append(target)
            pre[target].append(source)
        for node in self.all_nodes:
            self._pre[node] = tuple(sorted(pre[node]))
            self._post[node] = tuple(sorted(post[node]))

        if members is None:
            self._members = {node: frozenset({node}) for node in self._nodes}
        else:
            self._members = {
                node: frozenset(members.get(node, frozenset({node}))) for node in self._nodes
            }

        # Lazily-computed, instance-local caches.  Graphs are immutable, so
        # all are sound; they are dropped on pickling (see __getstate__).
        self._levels: dict[str, float] | None = None
        self._reversed: "DependencyGraph | None" = None
        self._pred_csr: tuple | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_log(
        cls,
        log: EventLog,
        min_frequency: float = 0.0,
        members: Mapping[str, frozenset[str]] | None = None,
    ) -> "DependencyGraph":
        """Build the dependency graph of *log* (Definition 1).

        Parameters
        ----------
        min_frequency:
            Edges with frequency strictly below this threshold are dropped
            (the *minimum frequency control* of Section 2, a trade-off
            between accuracy and efficiency evaluated in Figure 7).
        members:
            Composite membership mapping, if the log has merged events.
        """
        return cls.from_statistics(
            compute_statistics(log), name=log.name, min_frequency=min_frequency, members=members
        )

    @classmethod
    def from_statistics(
        cls,
        stats: LogStatistics,
        name: str = "graph",
        min_frequency: float = 0.0,
        members: Mapping[str, frozenset[str]] | None = None,
    ) -> "DependencyGraph":
        """Build a dependency graph from precomputed log statistics."""
        if not 0.0 <= min_frequency <= 1.0:
            raise GraphError(f"min_frequency must be in [0, 1], got {min_frequency}")
        edges = {
            pair: freq
            for pair, freq in stats.pair_frequencies.items()
            if freq >= min_frequency
        }
        return cls(stats.activity_frequencies, edges, name=name, members=members)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> tuple[str, ...]:
        """The real events of the graph, sorted (excludes ``v^X``)."""
        return self._nodes

    @property
    def all_nodes(self) -> tuple[str, ...]:
        """Real events plus the artificial event."""
        return self._nodes + (ARTIFICIAL,)

    @property
    def real_edges(self) -> dict[tuple[str, str], float]:
        """The non-artificial edges with their frequencies."""
        return {
            edge: freq
            for edge, freq in self._edge_freq.items()
            if ARTIFICIAL not in edge
        }

    def frequency(self, node: str) -> float:
        """``f(v)``: fraction of traces containing *node* (1.0 for ``v^X``)."""
        if node == ARTIFICIAL:
            return 1.0
        try:
            return self._node_freq[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def edge_frequency(self, source: str, target: str) -> float:
        """``f(v1, v2)`` of the edge, raising :class:`GraphError` if absent."""
        try:
            return self._edge_freq[(source, target)]
        except KeyError:
            raise GraphError(f"no edge ({source!r}, {target!r})") from None

    def has_edge(self, source: str, target: str) -> bool:
        return (source, target) in self._edge_freq

    def predecessors(self, node: str) -> tuple[str, ...]:
        """The pre-set ``•v`` (includes ``v^X`` for every real node)."""
        try:
            return self._pre[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def successors(self, node: str) -> tuple[str, ...]:
        """The post-set ``v•`` (includes ``v^X`` for every real node)."""
        try:
            return self._post[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def levels(self) -> dict[str, float]:
        """The Proposition-2 levels ``l(v)`` of every real node (plus ``v^X``).

        Computed once per instance and cached — the composite search asks
        for the same graph's levels once per candidate per direction, and
        recomputing the longest-distance pass each time dominated the
        candidate-evaluation setup cost.  The incremental merge engine
        seeds this cache with patched levels (:func:`repro.graph.levels.
        patched_longest_distances`) so merged graphs never pay the full
        recomputation either.
        """
        if self._levels is None:
            from repro.graph.levels import longest_distances

            self._levels = longest_distances(self)
        return self._levels

    def _seed_levels(self, levels: Mapping[str, float]) -> None:
        """Install externally computed levels (the incremental patch path).

        The caller guarantees *levels* equals :func:`longest_distances` of
        this graph; the differential tests in ``tests/graph/test_levels``
        hold that guarantee to account.
        """
        self._levels = dict(levels)

    def predecessor_csr(self) -> tuple:
        """Real-predecessor adjacency in CSR form: ``(indptr, indices, weights)``.

        Row ``k`` lists the *real* predecessors of ``self.nodes[k]`` as
        positions into :attr:`nodes` (``indices`` int32, sorted) together
        with the edge weights ``f(v', v)`` (``weights`` float64); ``indptr``
        is the usual int64 offsets array of length ``len(nodes) + 1``.  The
        artificial predecessor ``v^X`` is deliberately omitted: its
        contribution to formula (1) is closed-form (the agreement of the two
        artificial in-edges times the never-updated ``S(v^X, v^X) = 1``) and
        the EMS kernel folds it into a per-pair constant instead of
        storing a row for it.  Cached per instance; callers must treat the
        arrays as read-only.
        """
        if self._pred_csr is None:
            import numpy as np

            index = {node: k for k, node in enumerate(self._nodes)}
            indptr = np.zeros(len(self._nodes) + 1, dtype=np.int64)
            indices: list[int] = []
            weights: list[float] = []
            for k, node in enumerate(self._nodes):
                for pred in self._pre[node]:
                    if pred == ARTIFICIAL:
                        continue
                    indices.append(index[pred])
                    weights.append(self._edge_freq[(pred, node)])
                indptr[k + 1] = len(indices)
            self._pred_csr = (
                indptr,
                np.asarray(indices, dtype=np.int32),
                np.asarray(weights, dtype=np.float64),
            )
        return self._pred_csr

    def members(self, node: str) -> frozenset[str]:
        """The original activities a (possibly composite) node stands for."""
        try:
            return self._members[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def member_map(self) -> dict[str, frozenset[str]]:
        """A copy of the full node -> original-activities mapping."""
        return dict(self._members)

    def average_degree(self) -> float:
        """Mean total degree of real nodes, counting artificial edges.

        The complexity of the iterative similarity is
        ``O(k |V1| |V2| d_avg)`` (Section 3.2); this is the ``d_avg``.
        """
        total = sum(
            len(self._pre[node]) + len(self._post[node]) for node in self._nodes
        )
        return total / len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._node_freq or node == ARTIFICIAL

    def __repr__(self) -> str:
        return (
            f"DependencyGraph(name={self.name!r}, nodes={len(self._nodes)}, "
            f"edges={len(self.real_edges)})"
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def reversed(self) -> "DependencyGraph":
        """The graph with every real edge reversed.

        Running the forward similarity on reversed graphs yields the
        *backward similarity* of Section 3.6 (successors instead of
        predecessors); artificial edges are symmetric and unaffected.
        The result is memoized: graphs are immutable, and the composite
        search reverses the same two graphs once per candidate.
        """
        if self._reversed is None:
            reversed_edges = {
                (target, source): freq
                for (source, target), freq in self.real_edges.items()
            }
            self._reversed = DependencyGraph(
                self._node_freq, reversed_edges,
                name=f"{self.name}(reversed)", members=self._members,
            )
        return self._reversed

    # ------------------------------------------------------------------
    # Pickling: drop the instance caches — a reversed graph pickled along
    # with its parent would double every stored payload, and caches are
    # rebuilt (or re-seeded) lazily on first use anyway.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in ("_levels", "_reversed", "_pred_csr")
        }
        return state

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            object.__setattr__(self, slot, value)
        self._levels = None
        self._reversed = None
        self._pred_csr = None

    def filter_edges(self, min_frequency: float) -> "DependencyGraph":
        """Drop real edges with frequency below *min_frequency*."""
        if not 0.0 <= min_frequency <= 1.0:
            raise GraphError(f"min_frequency must be in [0, 1], got {min_frequency}")
        kept = {
            edge: freq for edge, freq in self.real_edges.items() if freq >= min_frequency
        }
        return DependencyGraph(self._node_freq, kept, name=self.name, members=self._members)

    def restrict_nodes(self, keep: Iterable[str]) -> "DependencyGraph":
        """The induced subgraph on the real nodes in *keep*."""
        kept_nodes = set(keep)
        unknown = kept_nodes - set(self._nodes)
        if unknown:
            raise GraphError(f"unknown nodes {sorted(unknown)!r}")
        node_freq = {node: self._node_freq[node] for node in kept_nodes}
        edges = {
            (source, target): freq
            for (source, target), freq in self.real_edges.items()
            if source in kept_nodes and target in kept_nodes
        }
        members = {node: self._members[node] for node in kept_nodes}
        return DependencyGraph(node_freq, edges, name=self.name, members=members)
