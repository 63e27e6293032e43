"""The EMS (Event Matching Similarity) engine — the paper's Section 3.

Given two dependency graphs, the engine computes the pairwise similarity
of Definition 2 by fixpoint iteration (formula (1)):

    S(v1, v2) = alpha * (s(v1, v2) + s(v2, v1)) / 2 + (1 - alpha) * S^L(v1, v2)
    s(v1, v2) = (1/|pre(v1)|) * sum over v1' in pre(v1) of
                max over v2' in pre(v2) of C(v1, v1', v2, v2') * S(v1', v2')
    C(v1, v1', v2, v2') = c * (1 - |f(v1', v1) - f(v2', v2)| /
                                   (f(v1', v1) + f(v2', v2)))

Initialization: ``S^0(v1^X, v2^X) = 1`` and 0 everywhere else; pairs
containing an artificial event are never updated.  The iteration is
monotone, bounded and converges to a unique limit when ``alpha*c < 1``
(Theorem 1).

Features implemented here:

* **forward / backward / both** directions (Section 3.6; backward = the
  same computation on reversed graphs, "both" averages the two);
* **early-convergence pruning** (Proposition 2) via
  :class:`repro.core.pruning.ConvergenceSchedule`;
* **estimation** ``EMS+es`` (Section 3.5) after a budget of exact
  iterations;
* **bounded evaluation with abort** (Section 4.3): stop as soon as the
  upper bound of the average similarity falls below a target — the *Bd*
  pruning used by the composite matcher;
* the **degradation ladder** of a budgeted run (formula (2) or the
  best-so-far values when the budget runs out);
* instrumentation: the number of formula-(1) evaluations (``pair_updates``)
  reported in the paper's Figures 6 and 12, counted for every fixpoint
  however it ended.

:meth:`EMSEngine.similarity` drives all of these through one loop.

One kernel, :class:`_DirectionalRun`, evaluates the iteration over one
edge-pair grid: the artificial predecessor's constant row is factored
out analytically into a per-pair base term, and each iteration gathers
the real-predecessor contributions of all active pairs as one in-edges ×
in-edges matrix, weights them by edge agreements gathered from a table
over the two sides' distinct edge weights (built once per run), then
max/sum-reduces it per node.  Small grids reduce with segmented
``reduceat`` calls; grids of at least :data:`_SLOT_ROUTE_CELLS` active
edge pairs lay each side's in-edges out in degree-ordered slots, where
every segment reduction is one contiguous ufunc call per in-degree
position.  Proposition-2 pruning makes the active pairs a prefix
rectangle of that grid.  Contributions are recomputed chunk by chunk,
so the working memory is ``O(chunk)``.  The per-pair loop
in ``tests/ems_oracle.py`` is the readable specification of formula (1);
``tests/core/test_sparse_kernel_equivalence`` pins the kernel to it
(identical ``iterations`` and ``pair_updates``, similarities within
1e-12).  See ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bounds import matrix_upper_bound
from repro.core.config import EMSConfig
from repro.core.estimation import estimate_matrix, estimation_coefficients
from repro.core.matrix import SimilarityMatrix
from repro.core.pruning import ConvergenceSchedule, active_prefix_length, prefix_schedule
from repro.graph.dependency import DependencyGraph
from repro.obs import NULL_OBSERVER, Observer
from repro.runtime.budget import BudgetMeter
from repro.runtime.degrade import DegradationPolicy
from repro.runtime.report import STAGE_ESTIMATED, STAGE_EXACT, STAGE_PARTIAL
from repro.exceptions import BudgetExhausted
from repro.similarity.labels import LabelSimilarity, OpaqueSimilarity


@dataclass(frozen=True, slots=True)
class EMSResult:
    """Outcome of an EMS similarity computation.

    Attributes
    ----------
    matrix:
        Pairwise similarities over the real nodes of the two graphs.
    iterations:
        Iterations performed (summed over directions).
    pair_updates:
        Number of formula-(1) evaluations — the pruning-power metric of
        Figures 6 and 12.
    converged:
        Whether the fixpoint was reached (as opposed to hitting
        ``max_iterations``).
    estimated:
        Whether the closed-form estimation supplied part of the values.
    stage:
        How the run ended: ``"exact"``, or the degradation rung a budget
        cut sent it to (``"estimated"`` / ``"partial"``).
    reason:
        The exhausted budget axis of a degraded run, else ``None``.
    aborted:
        Whether the Bd bound stopped the run: its matrix is then the
        unfinished state, not a similarity; its counters are the work
        done.
    """

    matrix: SimilarityMatrix
    iterations: int
    pair_updates: int
    converged: bool
    estimated: bool
    #: Per-direction matrices ("forward"/"backward"); the composite
    #: matcher's Uc pruning warm-starts the next evaluation from these.
    directional: dict[str, SimilarityMatrix] | None = None
    stage: str = STAGE_EXACT
    reason: str | None = None
    aborted: bool = False

    @property
    def average(self) -> float:
        return self.matrix.average()

    @classmethod
    def from_directional(
        cls,
        rows: tuple[str, ...],
        cols: tuple[str, ...],
        directional_values: dict[str, np.ndarray],
        **fields: object,
    ) -> "EMSResult":
        """A result from per-direction value arrays; *fields* are the rest.

        The combined matrix is the :func:`combine_directional` of the
        arrays.  A live run and the match store's restore path (which
        persists only the directional arrays, at the dtype the fixpoint
        ran at) both build their result here, so a restored result is
        bit-identical to the one that was stored.
        """
        combined = combine_directional(list(directional_values.values()))
        return cls(
            matrix=SimilarityMatrix(rows, cols, combined),
            directional={
                name: SimilarityMatrix(rows, cols, values)
                for name, values in directional_values.items()
            },
            **fields,
        )


def combine_directional(values: list[np.ndarray]) -> np.ndarray:
    """Combine per-direction similarity arrays into the final matrix.

    A plain mean over directions, shared by the live fixpoint and the
    match-store restore path (:meth:`EMSResult.from_directional`):
    bit-identity of a served matrix reduces to bit-identity of the stored
    directional arrays.
    """
    return np.mean(values, axis=0)


#: Whole label matrices a :class:`LabelMatrixCache` keeps by default.
LABEL_CACHE_ENTRIES = 512

#: Cell-cache headroom per matrix entry of a LabelMatrixCache — roughly
#: one mid-sized matrix's worth of scalar cells per cached matrix.
_CELLS_PER_ENTRY = 128


class LabelMatrixCache:
    """Memoized ``S^L`` matrices shared across :class:`EMSEngine` instances.

    One composite matching run evaluates dozens of candidates per round,
    and every evaluation used to rebuild the label matrix from scratch —
    ``O(n1 * n2)`` label-similarity calls, almost all scoring the same
    node pairs as the previous candidate.  Engines sharing a cache reuse
    whole matrices (keyed on the two node-name tuples) and individual
    cells (keyed on the name pair).  Sound within one matching run because
    composite node names (``⟨A+B⟩``, :func:`repro.graph.merge.composite_name`)
    encode their member activities: equal names imply equal label values.

    ``max_entries`` (:data:`LABEL_CACHE_ENTRIES` by default) bounds the
    cache with LRU eviction: at most that many whole matrices and ``128
    *`` that many scalar cells are retained, so a long composite run over
    a large alphabet — whose candidate vocabularies never repeat exactly —
    cannot grow the cache without limit.

    Matrix keys include the requested dtype: a float32 run must get a
    float32 matrix of its own, never a silently upcast view of a float64
    matrix cached by an earlier run sharing the same cache.  The scalar
    cell cache stays dtype-free — cells hold the exact Python-float label
    values and are narrowed on assignment into each matrix.

    The cache keeps its own lifetime totals — :attr:`hits`,
    :attr:`misses` and :attr:`evictions` (whole matrices evicted) — which
    :class:`EMSEngine` exports through the metrics registry as
    ``label_cache_hits_total`` / ``label_cache_misses_total`` /
    ``label_cache_evictions_total``.
    """

    __slots__ = (
        "_matrices", "_cells", "_max_entries", "_max_cells",
        "hits", "misses", "evictions",
    )

    def __init__(self, max_entries: int = LABEL_CACHE_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._matrices: dict[
            tuple[tuple[str, ...], tuple[str, ...], str], np.ndarray
        ] = {}
        self._cells: dict[tuple[str, str], float] = {}
        self._max_entries = max_entries
        self._max_cells = max_entries * _CELLS_PER_ENTRY
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        """Number of cached whole matrices."""
        return len(self._matrices)

    def matrix(
        self,
        rows: tuple[str, ...],
        cols: tuple[str, ...],
        label,
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """The label matrix for *rows* x *cols*, computing misses via *label*.

        The returned array has the requested *dtype*, is shared between
        callers asking for the same ``(rows, cols, dtype)``, and is marked
        read-only.
        """
        dtype = np.dtype(dtype)
        key = (rows, cols, dtype.str)
        matrices = self._matrices
        cached = matrices.get(key)
        if cached is not None:
            self.hits += 1
            matrices[key] = matrices.pop(key)  # LRU touch
            return cached
        self.misses += 1
        cells = self._cells
        cached = np.empty((len(rows), len(cols)), dtype=dtype)
        for i, first in enumerate(rows):
            for j, second in enumerate(cols):
                value = cells.get((first, second))
                if value is None:
                    value = label(first, second)
                    cells[first, second] = value
                cached[i, j] = value
        cached.flags.writeable = False
        matrices[key] = cached
        while len(matrices) > self._max_entries:
            matrices.pop(next(iter(matrices)))
            self.evictions += 1
        while len(cells) > self._max_cells:
            cells.pop(next(iter(cells)))
        return cached


@dataclass(frozen=True, slots=True)
class WarmStart:
    """Similarity values carried over from a parent evaluation.

    The incremental composite engine hands the fixpoint the parent round's
    converged directional matrix, mapped onto the merged node grid, plus
    the *dirty-pair frontier*: the boolean mask of pairs whose predecessor
    signature changed under the candidate merge (Proposition 4's affected
    region).  Non-dirty pairs keep their carried values and are never
    re-iterated.  Dirty pairs restart from the standard initialization,
    which keeps the computation bit-identical to a cold evaluation with
    the same fixed set (the differential guarantee of
    ``tests/property/test_property_incremental``).

    ``values`` and ``dirty`` are ``(n1, n2)`` arrays over the real node
    grids of the two graphs; ``values`` entries under the dirty mask are
    ignored.
    """

    values: np.ndarray
    dirty: np.ndarray

    @property
    def pairs_fixed(self) -> int:
        """How many pairs the warm start pins (the Uc accounting metric)."""
        return int(self.dirty.size - self.dirty.sum())


#: The Uc / warm-start seed of a directional run, if it has one.
FixedPairs = WarmStart | None


def edge_agreement(weight_first: np.ndarray, weight_second: np.ndarray, c: float) -> np.ndarray:
    """The factor ``C`` for all pairs of edge weights (outer combination).

    ``C = c * (1 - |f1 - f2| / (f1 + f2))``; shape is
    ``(len(weight_first), len(weight_second))``.  Frequencies are positive
    by construction, so the denominator never vanishes.
    """
    w1 = weight_first[:, None]
    w2 = weight_second[None, :]
    return c * (1.0 - np.abs(w1 - w2) / (w1 + w2))


#: Target element count of one edge-pair chunk — the bound on the kernel's
#: per-step temporaries on both routes.  A chunk holds the in-edges of
#: whole ``v1`` nodes against the active in-edges of the second side, so
#: the actual temp is at most ``max(_SPARSE_CHUNK_TARGET, d1 * E2)``
#: elements, where ``d1`` is the largest real in-degree of the first side
#: and ``E2`` the second side's active edge count.  The ``reduceat`` route
#: allocates its temporaries per chunk; the slot route gathers into the
#: reused buffers of a :class:`_ChunkScratch`.  Patchable in tests.
_SPARSE_CHUNK_TARGET = 1 << 16

#: Active edge-pair rectangle ``E1 * E2`` from which a step takes the slot
#: route (:meth:`_DirectionalRun._reduce_slots`).  Below it the per-count
#: slot layouts cost more to build than their reductions save, so small
#: grids (the composite search's, tens of cells) keep ``reduceat``.
#: Patchable in tests.
_SLOT_ROUTE_CELLS = 4096


@dataclass(frozen=True, slots=True)
class _EdgeSide:
    """One side of the edge-pair grid.

    Nodes are in :func:`repro.core.pruning.prefix_schedule` order
    (descending convergence level), so the nodes active at iteration ``n``
    are a prefix, and their real in-edges are grouped by target node in
    the same order, so the edges of that prefix are an edge prefix too.
    Nodes whose pairs are all Uc-fixed are left out.
    """

    nodes: np.ndarray      #: (k,) node indices (rows or columns of `values`)
    levels: np.ndarray     #: (k,) their convergence levels, descending
    offsets: np.ndarray    #: (k + 1,) start of each node's in-edges
    sources: np.ndarray    #: (E,) source node of each in-edge
    distinct: np.ndarray   #: (U,) the distinct in-edge weights, run dtype
    weight_of: np.ndarray  #: (E,) position of each in-edge's weight in `distinct`
    inner: np.ndarray      #: positions of the nodes with real in-degree > 0
    scale: np.ndarray      #: (k,) α/2 · 1/|pre(v)|, run dtype
    #: slot layouts of the active inner prefixes met so far, by length
    layouts: dict[int, "_SlotLayout"] = field(default_factory=dict)

    @classmethod
    def build(cls, graph: DependencyGraph, levels: np.ndarray, keep: np.ndarray,
              half_alpha: float, dtype: np.dtype) -> "_EdgeSide":
        indptr, indices, weights = graph.predecessor_csr()
        kept = np.flatnonzero(keep)
        order, sorted_levels = prefix_schedule(levels[kept])
        nodes = kept[order]
        degree = np.diff(indptr)[nodes]
        offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(degree, out=offsets[1:])
        edges = np.repeat(indptr[nodes] - offsets[:-1], degree) + np.arange(offsets[-1])
        # |pre(v)| includes the artificial predecessor (+1).
        scale = (half_alpha * (1.0 / (degree + 1))).astype(dtype)
        distinct, weight_of = np.unique(weights[edges].astype(dtype), return_inverse=True)
        return cls(nodes, sorted_levels, offsets, indices[edges], distinct, weight_of,
                   np.flatnonzero(degree), scale)

    def active(self, iteration: int, use_pruning: bool) -> int:
        """How many leading nodes are active at *iteration*."""
        if use_pruning:
            return active_prefix_length(self.levels, iteration)
        return len(self.nodes)

    def slots(self, count: int) -> "_SlotLayout":
        """The slot layout of the first *count* inner nodes, cached.

        Pruning shrinks the active prefix a few times per run, so a run
        builds only a handful of layouts.
        """
        layout = self.layouts.get(count)
        if layout is None:
            positions = self.inner[:count]
            degree = self.offsets[positions + 1] - self.offsets[positions]
            order = np.argsort(-degree, kind="stable")
            positions, degree = positions[order], degree[order]
            # counts[q]: how many nodes have more than q in-edges.
            counts = np.searchsorted(-degree, -np.arange(degree[0]), side="left")
            starts = np.zeros(len(counts) + 1, dtype=np.int64)
            np.cumsum(counts, out=starts[1:])
            # Slot s holds in-edge q of node `node`, both read off its block.
            q = np.repeat(np.arange(len(counts)), counts)
            node = np.arange(starts[-1]) - np.repeat(starts[:-1], counts)
            edges = self.offsets[positions[node]] + q
            layout = _SlotLayout(
                positions, counts, starts, np.cumsum(degree),
                self.sources[edges], self.weight_of[edges],
                tuple(zip(starts[1:-1].tolist(), counts[1:].tolist())),
            )
            self.layouts[count] = layout
        return layout


@dataclass(frozen=True, slots=True)
class _SlotLayout:
    """Active inner nodes of one side, with their in-edges in slots.

    Nodes are sorted by real in-degree, descending and stable, so the
    nodes with more than ``q`` in-edges are the first ``counts[q]``.
    Their in-edges are laid out position-major: slot block ``q`` holds
    the ``q``-th in-edge of each of those nodes, in node order.  A
    segment reduction over every node's in-edges is then one contiguous
    elementwise ufunc call per in-degree position, accumulating block
    ``q`` into the leading ``counts[q]`` entries of block 0.
    """

    nodes: np.ndarray    #: (m,) grid positions, by in-degree descending
    counts: np.ndarray   #: (d,) nodes with more than q in-edges; d = max degree
    starts: np.ndarray   #: (d + 1,) first slot of each block
    ends: np.ndarray     #: (m,) cumulative in-degree in node order
    sources: np.ndarray  #: (E,) source node of each slot's edge
    codes: np.ndarray    #: (E,) distinct-weight code of each slot's edge
    blocks: tuple[tuple[int, int], ...]  #: (start, count) of blocks 1..d-1
    #: chunk plans met so far, by edge budget (see :meth:`chunks`)
    plans: dict[int, tuple[_SlotChunk, ...]] = field(default_factory=dict)

    def chunks(self, budget: int) -> tuple[_SlotChunk, ...]:
        """Consecutive nodes in chunks of at most *budget* in-edges, or one
        node if it alone has more; cached, since the budget changes only
        with the other side's active edge count."""
        plan = self.plans.get(budget)
        if plan is None:
            plan = []
            start = 0
            while start < len(self.nodes):
                low = int(self.ends[start - 1]) if start else 0
                stop = max(start + 1, int(np.searchsorted(self.ends, low + budget, side="right")))
                # Block q of the chunk: slots start + [0, local[q]) of block q.
                local = np.minimum(self.counts, stop) - start
                local = local[: np.searchsorted(-local, 0)]
                local_starts = np.zeros(len(local) + 1, dtype=np.int64)
                np.cumsum(local, out=local_starts[1:])
                slots = np.arange(local_starts[-1]) + np.repeat(
                    self.starts[: len(local)] + start - local_starts[:-1], local
                )
                plan.append(_SlotChunk(
                    start, stop, self.sources[slots], self.codes[slots],
                    tuple(zip(local_starts[1:-1].tolist(), local[1:].tolist())),
                ))
                start = stop
            plan = self.plans[budget] = tuple(plan)
        return plan


@dataclass(frozen=True, slots=True)
class _SlotChunk:
    """Nodes ``start:stop`` of a :class:`_SlotLayout`, their slots laid out
    position-major within the chunk."""

    start: int
    stop: int
    sources: np.ndarray  #: source node of each of the chunk's slots
    codes: np.ndarray    #: distinct-weight code of each of the chunk's slots
    blocks: tuple[tuple[int, int], ...]  #: (start, count) of blocks 1.. in the chunk


class _ChunkScratch:
    """Chunk buffers reused by every step of the runs of one engine call.

    The slot route gathers each chunk into these instead of fresh
    temporaries: fresh arrays of chunk size are separate memory maps,
    whose pages fault in again on every chunk.  The directional runs of
    one call step one at a time, so one set of buffers serves them all.
    A buffer grows when a chunk needs more (a hub node above the chunk
    budget) and is otherwise reused as is.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: list[np.ndarray | None] = [None, None, None]

    def array(self, slot: int, shape: tuple[int, int], dtype: np.dtype) -> np.ndarray:
        """A ``shape`` array over buffer *slot*; its contents are garbage."""
        size = shape[0] * shape[1]
        buffer = self._buffers[slot]
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = np.empty(max(size, _SPARSE_CHUNK_TARGET), dtype=dtype)
            self._buffers[slot] = buffer
        return buffer[:size].reshape(shape)


@dataclass(frozen=True, slots=True)
class _EdgeGrid:
    """The kernel's pairs: the product of two :class:`_EdgeSide` orders."""

    first: _EdgeSide
    second: _EdgeSide
    #: (U1, U2) ``C`` over the two sides' distinct weights; None without
    #: edge weights, where ``C`` is the constant ``c``
    agreement: np.ndarray | None
    base: np.ndarray         #: (k1, k2) constant term: artificial row + label blend
    linear: np.ndarray       #: (k1, k2) row-major linear pair index (budget-cut order)
    free: np.ndarray | None  #: (k1, k2) not Uc-fixed; None when nothing is fixed


class _DirectionalRun:
    """One forward-similarity fixpoint computation on a graph pair.

    The run holds the state of one direction; :meth:`EMSEngine.similarity`
    drives it, one :meth:`advance` per iteration, and :meth:`estimate`
    applies formula (2) where ``EMS+es`` or the degradation ladder asks.
    Each iteration evaluates formula (1) for every active pair with a
    fixed handful of NumPy calls per chunk.  Four observations make that
    possible:

    * **The artificial predecessor row is closed-form.**  ``v^X`` is a
      predecessor of every real node, and ``S(v^X, ·)`` is identically 0
      except ``S(v^X, v^X) = 1``, never updated.  In the forward max the
      ``v1' = v^X`` row therefore contributes exactly
      ``C(v1, v^X, v2, v^X)`` (the agreement of the two artificial
      in-edges), and real rows never gain from the artificial column (its
      products are 0 among non-negative terms).  So the whole artificial
      row/column folds into a per-pair constant — ``base = α/2 ·
      (1/|pre(v1)| + 1/|pre(v2)|) · C_art + (1-α) · S^L`` — computed once,
      and the iteration only touches the *real* predecessors, which the
      CSR export of :class:`~repro.graph.dependency.DependencyGraph`
      provides without the artificial padding.
    * **All contributions form one edge-pair grid.**  The contributions
      of pair ``(v1, v2)`` are exactly ``in-edges(v1) × in-edges(v2)``.
      With each side's in-edges grouped by target node, every
      contribution of the run is a cell of one ``E1 × E2`` matrix, and
      each pair owns a contiguous sub-block of it.  A step gathers
      ``previous[src1][:, src2]``, multiplies by the edge agreements
      ``C``, and reduces with a segment max over one axis's nodes and a
      segment sum over the other's — forward and backward are the same
      two reductions with the axes swapped.
    * **``C`` depends on two edge weights only.**  Weights are
      count/trace-count fractions, so each side has few distinct ones
      (``U <= min(E, traces + 1)``).  ``C`` is built once per grid as a
      ``U1 × U2`` table over the distinct weights, and each chunk gathers
      its agreements from it through the per-edge weight codes.
    * **Proposition-2 pruning is a rectangle.**  A pair is active while
      ``min(l(v1), l(v2)) >= n``, which is ``{l(v1) >= n} × {l(v2) >= n}``.
      With each side's nodes in descending level order the active pairs
      are a prefix rectangle, and only its edge prefix is touched.

    The segment reductions take one of two routes, chosen per step by
    the size of the active rectangle ``E1 · E2``.  Below
    :data:`_SLOT_ROUTE_CELLS` (the composite search's grids) they are
    ``np.maximum.reduceat`` / ``np.add.reduceat`` (:meth:`_reduce`).
    ``reduceat`` makes one inner-loop call per segment per row, which
    dominates on large grids, so from the cut on (:meth:`_reduce_slots`)
    each side's active inner nodes are sorted by in-degree and their
    in-edges laid out position-major (:class:`_SlotLayout`): a segment
    max or sum is then one contiguous ufunc call per in-degree
    position, into buffers reused across steps (:class:`_ChunkScratch`).
    The two routes differ only in the order of summation.

    Nothing per contribution stays resident: the gather of ``S`` and of
    ``C`` from its table is redone per chunk of whole ``v1`` nodes, at
    most :data:`_SPARSE_CHUNK_TARGET` elements each.  ``reduceat`` cannot
    express an empty segment, so both routes reduce over nodes with real
    predecessors only; a pair with no real predecessor on either side is
    its ``base``.  Uc-fixed pairs (Proposition 4) are computed when they
    fall inside the rectangle but never committed or counted; rows and
    columns whose pairs are all fixed are left out of the grid.  The grid
    is built lazily on the first step (the ``I = 0`` estimation never
    steps).
    """

    def __init__(
        self,
        first: DependencyGraph,
        second: DependencyGraph,
        config: EMSConfig,
        label_matrix: np.ndarray,
        fixed_pairs: FixedPairs = None,
        meter: BudgetMeter | None = None,
        scratch: _ChunkScratch | None = None,
    ):
        self.config = config
        self._meter = meter
        self._scratch = scratch if scratch is not None else _ChunkScratch()
        self._dtype = config.np_dtype
        self._graph_first = first
        self._graph_second = second
        self.nodes_first = first.nodes
        self.nodes_second = second.nodes
        n1, n2 = len(self.nodes_first), len(self.nodes_second)
        self._n1, self._n2 = n1, n2
        self.label_matrix = label_matrix
        self._grid: _EdgeGrid | None = None

        # Similarity array with the artificial row/column appended.
        dtype = self._dtype
        self.values = np.zeros((n1 + 1, n2 + 1), dtype=dtype)
        self.values[n1, n2] = 1.0  # S^0(v1^X, v2^X)

        self.schedule = ConvergenceSchedule(first, second)
        # Agreement of the two artificial in-edges, used by the estimation
        # and by the factored base term.
        if config.use_edge_weights:
            f1 = np.array([first.frequency(node) for node in self.nodes_first], dtype=dtype)
            f2 = np.array([second.frequency(node) for node in self.nodes_second], dtype=dtype)
            self._artificial_agreement = edge_agreement(f1, f2, config.c)
        else:
            self._artificial_agreement = np.full((n1, n2), config.c, dtype=dtype)

        # Pairs with externally known converged values (Proposition 4 — the
        # *Uc* pruning of the composite matcher): seeded and never updated.
        # Non-dirty pairs keep the carried values, dirty pairs start from 0
        # exactly like a cold run.
        if fixed_pairs is None:
            self._fixed_mask = np.zeros((n1, n2), dtype=bool)
        else:
            if fixed_pairs.values.shape != (n1, n2):
                raise ValueError(
                    f"warm-start shape {fixed_pairs.values.shape} does not match "
                    f"the ({n1}, {n2}) real-pair grid"
                )
            self._fixed_mask = ~fixed_pairs.dirty
            real = self.values[:n1, :n2]
            real[self._fixed_mask] = fixed_pairs.values[self._fixed_mask]

        self.iterations = 0
        self.pair_updates = 0
        self.converged = False
        self.estimated = False

    # ------------------------------------------------------------------
    def real_values(self) -> np.ndarray:
        """The real-pair block of the similarity array (a copy)."""
        return self.values[: self._n1, : self._n2].copy()

    def _build_grid(self) -> _EdgeGrid:
        config = self.config
        dtype = self._dtype
        half_alpha = config.alpha / 2.0
        label_weight = 1.0 - config.alpha
        fixed = self._fixed_mask
        first = _EdgeSide.build(
            self._graph_first, self.schedule.node_levels_first,
            ~fixed.all(axis=1), half_alpha, dtype,
        )
        second = _EdgeSide.build(
            self._graph_second, self.schedule.node_levels_second,
            ~fixed.all(axis=0), half_alpha, dtype,
        )
        block = np.ix_(first.nodes, second.nodes)
        inverse_first = 1.0 / (np.diff(first.offsets) + 1)
        inverse_second = 1.0 / (np.diff(second.offsets) + 1)
        factor = half_alpha * (inverse_first[:, None] + inverse_second[None, :])
        base = factor.astype(dtype) * self._artificial_agreement[block]
        if label_weight:
            base = base + label_weight * self.label_matrix[block]
        free = ~fixed[block]
        agreement = None
        if config.use_edge_weights:
            agreement = edge_agreement(first.distinct, second.distinct, config.c)
        return _EdgeGrid(
            first=first,
            second=second,
            agreement=agreement,
            base=np.asarray(base, dtype=dtype),
            linear=first.nodes[:, None].astype(np.int64) * self._n2 + second.nodes[None, :],
            free=None if free.all() else free,
        )

    def step(self) -> float:
        """Perform one iteration of formula (1); return the max change.

        When a :class:`BudgetMeter` is attached, the budget is checked at
        the start of the iteration and every pair update is charged; a
        :class:`~repro.exceptions.BudgetExhausted` raised mid-iteration
        leaves ``values`` in a valid best-so-far state (some pairs
        updated, the rest at the previous iteration) and the accounting
        consistent, so the degradation ladder can continue from it.
        """
        meter = self._meter
        if meter is not None:
            meter.check()
        self.iterations += 1
        iteration = self.iterations
        if self._grid is None:
            self._grid = self._build_grid()
        grid = self._grid
        use_pruning = self.config.use_pruning
        count_first = grid.first.active(iteration, use_pruning)
        count_second = grid.second.active(iteration, use_pruning)
        previous = self.values.copy()

        # Phase 1: evaluate formula (1) over the active prefix rectangle.
        # All reads go to `previous` (Jacobi iteration), so chunk order is
        # irrelevant.
        updated = grid.base[:count_first, :count_second].copy()
        rows = grid.first.inner[: np.searchsorted(grid.first.inner, count_first)]
        cols = grid.second.inner[: np.searchsorted(grid.second.inner, count_second)]
        if len(rows) and len(cols):
            cells = grid.first.offsets[count_first] * grid.second.offsets[count_second]
            if cells >= _SLOT_ROUTE_CELLS:
                slots_first = grid.first.slots(len(rows))
                slots_second = grid.second.slots(len(cols))
                rows, cols = slots_first.nodes, slots_second.nodes
                forward, backward = self._reduce_slots(previous, slots_first, slots_second)
            else:
                forward, backward = self._reduce(previous, rows, cols, count_second)
            block = np.ix_(rows, cols)
            updated[block] = (
                updated[block]
                + grid.first.scale[rows, None] * forward
                + grid.second.scale[None, cols] * backward
            )
        linear = grid.linear[:count_first, :count_second]
        if grid.free is not None:
            free = grid.free[:count_first, :count_second]
            linear, updated = linear[free], updated[free]

        # Phase 2: commit and charge the meter in one batched call.
        return self._commit_pending(linear.ravel(), updated.ravel(), previous, meter)

    def _reduce(
        self, previous: np.ndarray, rows: np.ndarray, cols: np.ndarray, count_second: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Forward and backward sums of the ``rows × cols`` pairs.

        *rows* and *cols* are grid positions of active nodes with real
        predecessors; the result has shape ``(len(rows), len(cols))``.
        ``forward[i, j]`` is the sum over ``v1``'s in-edges of the max
        over ``v2``'s in-edges of ``C · S`` (formula (1) before the
        ``1/|pre(v1)|`` scale); ``backward`` swaps the roles.
        """
        first, second = self._grid.first, self._grid.second
        edges_second = second.offsets[count_second]
        sources_second = second.sources[:edges_second]
        # Gathering from the distinct-weight table gives bit for bit what
        # `edge_agreement` computes on a chunk's weights.
        agreement = self._grid.agreement
        codes_second = second.weight_of[:edges_second]
        col_starts = second.offsets[cols]
        row_starts = first.offsets[rows]
        row_ends = first.offsets[rows + 1]
        budget = max(1, _SPARSE_CHUNK_TARGET // edges_second)
        forward = np.empty((len(rows), len(cols)), dtype=self._dtype)
        backward = np.empty_like(forward)
        start = 0
        while start < len(rows):
            # Whole v1 nodes of at most `budget` edge rows, or one node.
            stop = max(
                start + 1,
                int(np.searchsorted(row_ends, row_starts[start] + budget, side="right")),
            )
            low, high = row_starts[start], row_ends[stop - 1]
            grid = previous[first.sources[low:high]][:, sources_second]
            if agreement is not None:
                grid *= agreement[first.weight_of[low:high]][:, codes_second]
            else:
                grid *= self.config.c
            segments = row_starts[start:stop] - low
            forward[start:stop] = np.add.reduceat(
                np.maximum.reduceat(grid, col_starts, axis=1), segments, axis=0
            )
            backward[start:stop] = np.add.reduceat(
                np.maximum.reduceat(grid, segments, axis=0), col_starts, axis=1
            )
            start = stop
        return forward, backward

    def _reduce_slots(
        self, previous: np.ndarray, first: _SlotLayout, second: _SlotLayout
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_reduce` for large grids, over two slot layouts.

        The result is over ``first.nodes × second.nodes``.  Each chunk of
        whole ``v1`` nodes (consecutive in the first layout) is gathered
        with its ``v1`` in-edges in slot order local to the chunk and its
        ``v2`` in-edges in the second layout's slot order.  Every segment
        max or sum then combines whole row blocks, one contiguous ufunc
        call per in-degree position: the forward max runs on the chunk
        gathered transposed (``v2`` slots as rows), the backward max on a
        copy with ``v1`` slots as rows, and each max's result is
        transposed once more for its sum.  Sums add a node's in-edges in
        edge order.
        """
        scratch, dtype = self._scratch, self._dtype
        agreement = self._grid.agreement
        edges_second = int(second.starts[-1])
        nodes_second = len(second.nodes)
        blocks_second = second.blocks
        forward = np.empty((len(first.nodes), nodes_second), dtype=dtype)
        backward = np.empty_like(forward)
        for chunk_plan in first.chunks(max(1, _SPARSE_CHUNK_TARGET // edges_second)):
            start, stop, blocks_first = chunk_plan.start, chunk_plan.stop, chunk_plan.blocks
            width, height = stop - start, len(chunk_plan.sources)
            # The transposed chunk, gathered row by row: NumPy's row take is
            # several times faster than its column take.
            gathered = scratch.array(2, (height, previous.shape[1]), dtype)
            np.take(previous, chunk_plan.sources, axis=0, out=gathered, mode="clip")
            flipped = scratch.array(0, gathered.shape[::-1], dtype)
            np.copyto(flipped, gathered.T)
            transposed = scratch.array(1, (edges_second, height), dtype)
            np.take(flipped, second.sources, axis=0, out=transposed, mode="clip")
            if agreement is not None:
                # Gathering from the distinct-weight table gives bit for
                # bit what `edge_agreement` computes on the chunk's weights.
                gathered = scratch.array(2, (height, agreement.shape[1]), dtype)
                np.take(agreement, chunk_plan.codes, axis=0, out=gathered, mode="clip")
                flipped = scratch.array(0, gathered.shape[::-1], dtype)
                np.copyto(flipped, gathered.T)
                weights = scratch.array(2, (edges_second, height), dtype)
                np.take(flipped, second.codes, axis=0, out=weights, mode="clip")
                np.multiply(transposed, weights, out=transposed)
            else:
                np.multiply(transposed, self.config.c, out=transposed)
            chunk = scratch.array(0, (height, edges_second), dtype)
            np.copyto(chunk, transposed.T)

            # Forward: max down the v2 slot blocks, sum down the v1 ones.
            for begin, count in blocks_second:
                np.maximum(transposed[:count], transposed[begin:begin + count],
                           out=transposed[:count])
            maxima = scratch.array(2, (height, nodes_second), dtype)
            np.copyto(maxima, transposed[:nodes_second].T)
            for begin, count in blocks_first:
                np.add(maxima[:count], maxima[begin:begin + count], out=maxima[:count])
            forward[start:stop] = maxima[:width]

            # Backward: max down the v1 slot blocks, sum down the v2 ones.
            for begin, count in blocks_first:
                np.maximum(chunk[:count], chunk[begin:begin + count], out=chunk[:count])
            maxima = scratch.array(1, (edges_second, width), dtype)
            np.copyto(maxima, chunk[:width].T)
            for begin, count in blocks_second:
                np.add(maxima[:count], maxima[begin:begin + count], out=maxima[:count])
            backward[start:stop] = maxima[:nodes_second].T
        return forward, backward

    def _commit_pending(
        self,
        linear: np.ndarray,
        updated: np.ndarray,
        previous: np.ndarray,
        meter: BudgetMeter | None,
    ) -> float:
        """Phase 2 of an iteration: write updates, charge, report delta.

        ``linear`` is the row-major linear index ``i * n2 + j`` of each
        evaluated pair and ``updated`` its new value.  Budget semantics
        are those of the per-pair loop of formula (1), which visits pairs
        in row-major order and charges one tick per pair: the meter is
        charged once via ``tick(n)``, and when the pair-update cap would
        trip mid-iteration only the row-major prefix of ``remaining + 1``
        updates that loop would have committed is written before the
        raise, leaving ``values`` in the same valid best-so-far state.
        """
        remaining = meter.pair_updates_remaining if meter is not None else None
        cut = remaining is not None and len(linear) > remaining
        if cut:
            # The reference loop writes the pair whose tick raises before
            # raising, so `remaining + 1` pairs commit.
            first = np.argsort(linear, kind="stable")[: remaining + 1]
            linear, updated = linear[first], updated[first]
        rows, cols = np.divmod(linear, self._n2)
        deltas = np.abs(updated - previous[rows, cols])
        self.values[rows, cols] = updated
        self.pair_updates += len(linear)
        if meter is not None:
            meter.tick(len(linear))
        if cut:
            raise AssertionError("pair-update budget charge must have raised")
        return float(deltas.max()) if deltas.size else 0.0

    def finished(self) -> bool:
        return self.converged or self.iterations >= self.config.max_iterations

    def advance(self) -> None:
        """One step plus convergence bookkeeping."""
        delta = self.step()
        if delta < self.config.epsilon or (
            self.config.use_pruning and self.schedule.all_fixed_after(self.iterations)
        ):
            self.converged = True

    def estimate(self) -> None:
        """Formula (2) (Section 3.5) on the current state.

        Fills in the unconverged pairs from however many exact iterations
        ran; a converged run has exact values everywhere and is left as is.
        """
        if self.converged:
            return
        # |pre(v)|: the real in-degree plus the artificial predecessor.
        q, a = estimation_coefficients(
            np.diff(self._graph_first.predecessor_csr()[0]) + 1,
            np.diff(self._graph_second.predecessor_csr()[0]) + 1,
            self._artificial_agreement,
            self.label_matrix,
            self.config.alpha,
            self.config.c,
        )
        # The coefficient algebra runs in float64 (the pre-counts promote);
        # narrow back to the run dtype so the estimated block matches it.
        q = q.astype(self._dtype, copy=False)
        a = a.astype(self._dtype, copy=False)
        real = self.real_values()
        estimated = estimate_matrix(real, q, a, self.schedule.pair_levels, self.iterations)
        estimated[self._fixed_mask] = real[self._fixed_mask]
        self.values[: self._n1, : self._n2] = estimated
        self.estimated = True
        self.converged = True

    def average_bound(self) -> float:
        """Upper bound of the final average similarity, given progress so far."""
        real = self.real_values()
        if self._n1 == 0 or self._n2 == 0:
            return 0.0
        if self.converged:
            return float(real.mean())
        bounded = matrix_upper_bound(
            real, self.iterations, self.config.decay, self.schedule.pair_levels
        )
        bounded[self._fixed_mask] = real[self._fixed_mask]
        return float(bounded.mean())


class EMSEngine:
    """Computes EMS similarities between two dependency graphs.

    Parameters
    ----------
    config:
        The :class:`EMSConfig` knobs; defaults are the paper's.
    label_similarity:
        The ``S^L`` blended in with weight ``1 - alpha``.  Defaults to
        :class:`OpaqueSimilarity` (structural-only matching).  Note that
        with ``alpha = 1`` the label similarity has no effect.
    label_cache:
        Optional :class:`LabelMatrixCache` shared across engines of one
        matching run, so repeated ``similarity`` calls over overlapping
        vocabularies (the composite greedy loop) skip recomputing ``S^L``.
    observer:
        Optional :class:`~repro.obs.Observer`.  With a tracer attached,
        every similarity call records an ``ems.fixpoint`` span with one
        ``ems.iteration[k]`` child per exact iteration and a
        ``pruning.freeze`` marker per direction; with metrics, it counts
        ``ems_fixpoint_total`` and ``ems_pair_updates_total``.  Without
        either (the default) the same loop runs through inert spans, so
        the observer never perturbs results.

    :meth:`similarity` is the one entry point: the exact fixpoint, the
    estimated one (``EMS+es``), the degradation ladder of a budgeted run
    and the *Bd* abort all run through its loop.
    """

    def __init__(
        self,
        config: EMSConfig | None = None,
        label_similarity: LabelSimilarity | None = None,
        label_cache: LabelMatrixCache | None = None,
        observer: Observer | None = None,
    ):
        self.config = config if config is not None else EMSConfig()
        self.label_similarity = (
            label_similarity if label_similarity is not None else OpaqueSimilarity()
        )
        self.label_cache = label_cache
        self.observer = observer if observer is not None else NULL_OBSERVER

    # ------------------------------------------------------------------
    def _label_matrix(self, first: DependencyGraph, second: DependencyGraph) -> np.ndarray:
        dtype = self.config.np_dtype
        if isinstance(self.label_similarity, OpaqueSimilarity) or self.config.alpha == 1.0:
            return np.zeros((len(first.nodes), len(second.nodes)), dtype=dtype)
        if self.label_cache is not None:
            cache = self.label_cache
            if self.observer.metrics is not None:
                hits, misses, evictions = cache.hits, cache.misses, cache.evictions
                matrix = cache.matrix(
                    first.nodes, second.nodes, self.label_similarity, dtype
                )
                if cache.hits > hits:
                    self.observer.count("label_cache_hits_total", cache.hits - hits)
                if cache.misses > misses:
                    self.observer.count("label_cache_misses_total", cache.misses - misses)
                if cache.evictions > evictions:
                    self.observer.count(
                        "label_cache_evictions_total", cache.evictions - evictions
                    )
                return matrix
            return cache.matrix(first.nodes, second.nodes, self.label_similarity, dtype)
        label = np.zeros((len(first.nodes), len(second.nodes)), dtype=dtype)
        for i, node_first in enumerate(first.nodes):
            for j, node_second in enumerate(second.nodes):
                label[i, j] = self.label_similarity(node_first, node_second)
        return label

    def _runs(
        self,
        first: DependencyGraph,
        second: DependencyGraph,
        fixed_forward: FixedPairs = None,
        fixed_backward: FixedPairs = None,
        meter: BudgetMeter | None = None,
    ) -> list[tuple[str, _DirectionalRun]]:
        """``(direction, run)`` for each direction the config asks for."""
        label = self._label_matrix(first, second)
        scratch = _ChunkScratch()
        runs: list[tuple[str, _DirectionalRun]] = []
        if self.config.direction in ("forward", "both"):
            runs.append(("forward", _DirectionalRun(
                first, second, self.config, label, fixed_forward, meter, scratch=scratch,
            )))
        if self.config.direction in ("backward", "both"):
            runs.append(("backward", _DirectionalRun(
                first.reversed(), second.reversed(), self.config, label,
                fixed_backward, meter, scratch=scratch,
            )))
        return runs

    def _iterate(
        self,
        group: list[tuple[str, _DirectionalRun]],
        abort_below: float | None,
    ) -> bool:
        """Advance the runs of *group* in lockstep; True on a Bd abort.

        Each pass steps every run that is neither finished nor at the
        exact-iteration budget of ``EMS+es``, one ``ems.iteration[k]``
        span each (inert unless tracing).  With *abort_below* (then the
        group holds every direction), the upper bound of the final
        average is checked after every pass, so a hopeless candidate dies
        at the first possible moment.
        """
        obs = self.observer
        exact = self.config.estimation_iterations
        while True:
            active = [
                (direction, run) for direction, run in group
                if not run.finished() and (exact is None or run.iterations < exact)
            ]
            if not active:
                return False
            for direction, run in active:
                before = run.pair_updates
                with obs.span(
                    f"ems.iteration[{run.iterations}]", direction=direction
                ) as span:
                    try:
                        run.advance()
                    finally:
                        span.attributes["pair_updates"] = run.pair_updates - before
            if abort_below is not None:
                bound = float(np.mean([run.average_bound() for _, run in group]))
                if bound < abort_below:
                    return True

    def _freeze_event(self, run: "_DirectionalRun", direction: str) -> None:
        """Record the post-run freeze accounting (Uc / Proposition 2)."""
        obs = self.observer
        if not obs.enabled:
            return
        obs.event(
            "pruning.freeze",
            direction=direction,
            fixed_pairs=int(run._fixed_mask.sum()),
            iterations=run.iterations,
            pair_updates=run.pair_updates,
            converged=run.converged,
            estimated=run.estimated,
        )
        obs.count("ems_pair_updates_total", run.pair_updates)

    # ------------------------------------------------------------------
    def similarity(
        self,
        first: DependencyGraph,
        second: DependencyGraph,
        fixed_forward: FixedPairs = None,
        fixed_backward: FixedPairs = None,
        *,
        meter: BudgetMeter | None = None,
        degradation: DegradationPolicy | None = None,
        abort_below: float | None = None,
    ) -> EMSResult:
        """Compute the pairwise similarity matrix of the two graphs.

        ``fixed_forward`` / ``fixed_backward`` are :class:`WarmStart` seeds
        of the pairs whose converged value is already known (Proposition
        4); those pairs are never iterated.

        A *meter* makes the computation cooperatively cancellable.  When
        it runs out, the *degradation* ladder decides what the result
        holds: the ``"estimated"`` rung fills in unconverged pairs with
        the Section 3.5 closed form from however many exact iterations
        ran, the ``"partial"`` rung keeps the best-so-far values as they
        are; ``stage`` and ``reason`` of the result say which rung and
        which budget axis.  Without a ladder, or with both rungs
        disabled, :class:`~repro.exceptions.BudgetExhausted` propagates.

        With *abort_below* set, this is the *Bd* pruning of Section 4.3:
        the directions advance in lockstep, and once the upper bound of
        the final *average* similarity (Proposition 6 / Corollary 7,
        averaged over directions) falls strictly below *abort_below*, the
        run stops and the result is marked ``aborted``; its counters
        still report the work done.  Without it the directions run one
        after the other.

        Every call counts ``ems_fixpoint_total`` and the
        ``ems_pair_updates_total`` it spent, whatever ended it.
        """
        obs = self.observer
        attributes: dict[str, object] = {
            "pairs": len(first.nodes) * len(second.nodes), "dtype": self.config.dtype,
        }
        if meter is not None:
            attributes["budgeted"] = True
        if abort_below is not None:
            attributes["abort_below"] = abort_below
        stage, reason, aborted = STAGE_EXACT, None, False
        with obs.span("ems.fixpoint", **attributes) as span:
            runs = self._runs(first, second, fixed_forward, fixed_backward, meter)
            groups = [runs] if abort_below is not None else [[item] for item in runs]
            try:
                for group in groups:
                    aborted = self._iterate(group, abort_below)
                    if aborted:
                        span.attributes["aborted"] = True
                        obs.count("ems_bound_aborts_total")
                        break
                    if self.config.estimation_iterations is not None:
                        for _, run in group:
                            run.estimate()
            except BudgetExhausted as error:
                span.attributes["budget_exhausted"] = error.reason
                obs.count("budget_exhausted_total")
                if degradation is None or not degradation.enabled:
                    raise
                reason = error.reason
                if degradation.allow_estimation:
                    stage = STAGE_ESTIMATED
                    for _, run in runs:
                        run.estimate()
                else:
                    stage = STAGE_PARTIAL
            finally:
                for direction, run in runs:
                    self._freeze_event(run, direction)
                obs.count("ems_fixpoint_total")
        return EMSResult.from_directional(
            first.nodes,
            second.nodes,
            {direction: run.real_values() for direction, run in runs},
            iterations=sum(run.iterations for _, run in runs),
            pair_updates=sum(run.pair_updates for _, run in runs),
            converged=all(run.converged for _, run in runs),
            estimated=any(run.estimated for _, run in runs),
            stage=stage,
            reason=reason,
            aborted=aborted,
        )


def iteration_trace(
    first: DependencyGraph,
    second: DependencyGraph,
    config: EMSConfig | None = None,
    label_similarity: LabelSimilarity | None = None,
    iterations: int = 10,
) -> list[SimilarityMatrix]:
    """The per-iteration similarity matrices ``S^1 .. S^k`` (forward only).

    Exposed for tests and worked examples (Examples 4-6 of the paper track
    individual iterations); not used on the hot path.
    """
    engine = EMSEngine(config, label_similarity)
    label = engine._label_matrix(first, second)
    run = _DirectionalRun(first, second, engine.config, label)
    snapshots: list[SimilarityMatrix] = []
    for _ in range(iterations):
        run.step()
        snapshots.append(SimilarityMatrix(first.nodes, second.nodes, run.real_values()))
    return snapshots
