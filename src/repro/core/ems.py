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
* instrumentation: the number of formula-(1) evaluations (``pair_updates``)
  reported in the paper's Figures 6 and 12.

One kernel, :class:`_DirectionalRun`, evaluates the iteration as a CSR
gather–scatter over real-degree blocks of pairs: the artificial
predecessor's constant row is factored out analytically into a per-pair
base term, and each iteration gathers, weights and max/sum-reduces the
real-predecessor contributions of all active pairs at once.  Small runs
cache the flat gather indices and edge agreements; above
:data:`_SPARSE_CACHE_LIMIT` contributions the kernel streams them in
bounded chunks, so its working memory is ``O(chunk)``.  The per-pair loop
in ``tests/ems_oracle.py`` is the readable specification of formula (1);
``tests/core/test_sparse_kernel_equivalence`` pins the kernel to it
(identical ``iterations`` and ``pair_updates``, similarities within
1e-12).  See ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """

    matrix: SimilarityMatrix
    iterations: int
    pair_updates: int
    converged: bool
    estimated: bool
    #: Per-direction matrices ("forward"/"backward"); the composite
    #: matcher's Uc pruning warm-starts the next evaluation from these.
    directional: dict[str, SimilarityMatrix] | None = None

    @property
    def average(self) -> float:
        return self.matrix.average()

    @classmethod
    def from_directional(
        cls,
        rows: tuple[str, ...],
        cols: tuple[str, ...],
        directional_values: dict[str, np.ndarray],
        *,
        iterations: int,
        pair_updates: int,
        converged: bool,
        estimated: bool,
    ) -> "EMSResult":
        """Rebuild a result from per-direction value arrays.

        The match store persists only the directional arrays (at the dtype
        the fixpoint ran at) and reconstructs the combined matrix here with
        :func:`combine_directional` — the *same* reduction ``_result`` uses
        after a live run, so a restored result is bit-identical to the one
        that was stored.
        """
        combined = combine_directional(list(directional_values.values()))
        return cls(
            matrix=SimilarityMatrix(rows, cols, combined),
            iterations=iterations,
            pair_updates=pair_updates,
            converged=converged,
            estimated=estimated,
            directional={
                name: SimilarityMatrix(rows, cols, values)
                for name, values in directional_values.items()
            },
        )


def combine_directional(values: list[np.ndarray]) -> np.ndarray:
    """Combine per-direction similarity arrays into the final matrix.

    A plain mean over directions, factored out so the live fixpoint
    (:meth:`EMSEngine._result`) and the match-store restore path share one
    reduction: bit-identity of a served matrix reduces to bit-identity of
    the stored directional arrays.
    """
    return np.mean(values, axis=0)


#: Cell-cache headroom per matrix entry of a bounded LabelMatrixCache —
#: roughly one mid-sized matrix's worth of scalar cells per cached matrix.
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

    ``max_entries`` bounds the cache with LRU eviction: at most that many
    whole matrices and ``128 *`` that many scalar cells are retained, so a
    long composite run over a large alphabet — whose candidate vocabularies
    never repeat exactly — cannot grow the cache without limit.  ``None``
    keeps the historical unbounded behaviour.  The cap is exposed as
    :attr:`repro.core.config.EMSConfig.label_cache_entries`.

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

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 or None, got {max_entries}")
        self._matrices: dict[
            tuple[tuple[str, ...], tuple[str, ...], str], np.ndarray
        ] = {}
        self._cells: dict[tuple[str, str], float] = {}
        self._max_entries = max_entries
        self._max_cells = None if max_entries is None else max_entries * _CELLS_PER_ENTRY
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
            if self._max_entries is not None:
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
        if self._max_entries is not None:
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
    re-iterated — the array equivalent of the ``fixed_pairs`` dictionaries,
    built without ``O(n1 * n2)`` Python dictionary traffic.  Dirty pairs
    restart from the standard initialization, which keeps the computation
    bit-identical to a cold evaluation with the same fixed set (the
    differential guarantee of ``tests/property/test_property_incremental``).

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


#: What the Uc / warm-start seed of a directional run may look like.
FixedPairs = dict[tuple[str, str], float] | WarmStart | None


def edge_agreement(weight_first: np.ndarray, weight_second: np.ndarray, c: float) -> np.ndarray:
    """The factor ``C`` for all pairs of edge weights (outer combination).

    ``C = c * (1 - |f1 - f2| / (f1 + f2))``; shape is
    ``(len(weight_first), len(weight_second))``.  Frequencies are positive
    by construction, so the denominator never vanishes.
    """
    w1 = weight_first[:, None]
    w2 = weight_second[None, :]
    return c * (1.0 - np.abs(w1 - w2) / (w1 + w2))


#: Above this many total real-predecessor contributions (one contribution
#: = one real-predecessor pair ``(v1', v2')`` of one node pair) the kernel
#: stops caching flat per-contribution arrays (gather indices and edge
#: agreements) and regenerates them chunk by chunk each iteration from the
#: node-level CSR tables — nothing per-contribution stays resident.  At
#: ``1 << 21`` the cached float64 agreements take at most 16 MiB per
#: direction.  Streaming trades per-iteration regeneration for memory, so
#: it only pays above that size; below it the cache is faster (see
#: ``docs/performance.md``).  Patchable in tests to force either mode.
_SPARSE_CACHE_LIMIT = 1 << 21

#: Target element count of one gather/agreement chunk in streaming mode —
#: the bound on the kernel's per-iteration temporary tensors.  Chunks are
#: aligned to whole pairs, so the actual temp is at most
#: ``max(_SPARSE_CHUNK_TARGET, A * B)`` elements.  Patchable in tests.
_SPARSE_CHUNK_TARGET = 1 << 16


@dataclass(slots=True)
class _DegreeGroup:
    """All nodes of one side sharing a real in-degree, with their CSR rows."""

    nodes: np.ndarray    #: (g,) node indices with this real in-degree
    preds: np.ndarray    #: (g, d) real-predecessor indices (rows of `values`)
    weights: np.ndarray  #: (g, d) in-edge weights, run dtype


@dataclass(slots=True)
class _DegreeBlock:
    """One real-degree block ``(d1, d2)`` of the kernel's pairs.

    Pairs are laid out in :func:`repro.core.pruning.prefix_schedule` order
    (descending convergence level) so Proposition-2 pruning is a prefix
    slice.  Per-pair storage is O(1): five scalars per pair plus a
    reference to the node-level degree groups.  Flat per-contribution
    arrays (``preds_*``/``agreement``) exist only in cached mode.
    """

    linear: np.ndarray   #: (m,) row-major linear pair index (budget-cut order)
    row_pos: np.ndarray  #: (m,) position of the pair's row inside group_first
    col_pos: np.ndarray  #: (m,) position of the pair's column inside group_second
    levels: np.ndarray   #: (m,) convergence levels, descending
    base: np.ndarray     #: (m,) constant term: artificial row + label blend
    group_first: _DegreeGroup
    group_second: _DegreeGroup
    inverse_first: float   #: 1 / |pre(v1)| — the real degree plus v^X
    inverse_second: float  #: 1 / |pre(v2)|
    preds_first: np.ndarray | None = None   #: (m, d1) cached gather rows
    preds_second: np.ndarray | None = None  #: (m, d2) cached gather columns
    agreement: np.ndarray | None = None     #: (m, d1, d2) cached ``C``


class _DirectionalRun:
    """One forward-similarity fixpoint computation on a graph pair.

    Each iteration evaluates formula (1) for every active pair as a CSR
    gather–scatter.  Two observations keep it fast and memory-lean:

    * **The artificial predecessor row is closed-form.**  ``v^X`` is a
      predecessor of every real node, and ``S(v^X, ·)`` is identically 0
      except ``S(v^X, v^X) = 1``, never updated.  In the forward max the
      ``v1' = v^X`` row therefore contributes exactly
      ``C(v1, v^X, v2, v^X)`` (the agreement of the two artificial
      in-edges), and real rows never gain from the artificial column (its
      products are 0 among non-negative terms).  So the whole artificial
      row/column folds into a per-pair constant — ``base = α/2 ·
      (1/|pre(v1)| + 1/|pre(v2)|) · C_art + (1-α) · S^L`` — computed once,
      and the iteration only touches the ``(d1, d2)`` *real* predecessor
      grid, which the CSR export of :class:`~repro.graph.dependency.
      DependencyGraph` provides without the artificial padding.
    * **Contributions can be regenerated instead of stored.**  Gather
      indices and edge agreements of a pair are pure functions of the two
      nodes' CSR rows.  Runs whose flat arrays fit under
      :data:`_SPARSE_CACHE_LIMIT` cache them once; larger runs switch to
      streaming mode and recompute them per chunk of at most
      :data:`_SPARSE_CHUNK_TARGET` contributions each iteration, so the
      resident footprint is the node-level CSR tables plus ~5 scalars per
      pair.

    Pairs sharing a real-degree signature ``(d1, d2)`` form one block, and
    within a chunk the gathered ``(k, d1, d2)`` contributions are reduced
    segment-wise — max over one predecessor axis, sum over the other —
    the uniform-segment special case of a COO scatter-reduce.  Blocks are
    built lazily on the first step (the ``I = 0`` estimation never steps)
    and exclude Uc-fixed pairs, which are never updated.
    """

    def __init__(
        self,
        first: DependencyGraph,
        second: DependencyGraph,
        config: EMSConfig,
        label_matrix: np.ndarray,
        fixed_pairs: FixedPairs = None,
        meter: BudgetMeter | None = None,
    ):
        self.config = config
        self._meter = meter
        self._dtype = config.np_dtype
        self._graph_first = first
        self._graph_second = second
        self.nodes_first = first.nodes
        self.nodes_second = second.nodes
        n1, n2 = len(self.nodes_first), len(self.nodes_second)
        self._n1, self._n2 = n1, n2
        self.label_matrix = label_matrix
        self._blocks: list[_DegreeBlock] | None = None

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
        # A WarmStart is the array form of the same fixed set: non-dirty
        # pairs keep the carried values, dirty pairs start from 0 exactly
        # like a cold run, so the two representations are interchangeable.
        if isinstance(fixed_pairs, WarmStart):
            if fixed_pairs.values.shape != (n1, n2):
                raise ValueError(
                    f"warm-start shape {fixed_pairs.values.shape} does not match "
                    f"the ({n1}, {n2}) real-pair grid"
                )
            self._fixed_mask = ~fixed_pairs.dirty
            real = self.values[:n1, :n2]
            real[self._fixed_mask] = fixed_pairs.values[self._fixed_mask]
        else:
            self._fixed_mask = np.zeros((n1, n2), dtype=bool)
            if fixed_pairs:
                index_first = {node: i for i, node in enumerate(self.nodes_first)}
                index_second = {node: j for j, node in enumerate(self.nodes_second)}
                for (node_first, node_second), value in fixed_pairs.items():
                    i = index_first.get(node_first)
                    j = index_second.get(node_second)
                    if i is None or j is None:
                        continue
                    self.values[i, j] = value
                    self._fixed_mask[i, j] = True

        self.iterations = 0
        self.pair_updates = 0
        self.converged = False
        self.estimated = False

    # ------------------------------------------------------------------
    def real_values(self) -> np.ndarray:
        """The real-pair block of the similarity array (a copy)."""
        return self.values[: self._n1, : self._n2].copy()

    def _degree_groups(self, graph: DependencyGraph) -> dict[int, _DegreeGroup]:
        indptr, indices, weights = graph.predecessor_csr()
        dtype = self._dtype
        degrees = np.diff(indptr)
        groups: dict[int, _DegreeGroup] = {}
        for degree in np.unique(degrees):
            degree = int(degree)
            nodes = np.nonzero(degrees == degree)[0].astype(np.int32)
            if degree == 0:
                preds = np.empty((len(nodes), 0), dtype=np.int32)
                group_weights = np.empty((len(nodes), 0), dtype=dtype)
            else:
                offsets = indptr[nodes][:, None] + np.arange(degree)[None, :]
                preds = indices[offsets]
                group_weights = weights[offsets].astype(dtype)
            groups[degree] = _DegreeGroup(nodes, preds, group_weights)
        return groups

    def _build_blocks(self) -> list[_DegreeBlock]:
        config = self.config
        dtype = self._dtype
        n2 = self._n2
        pair_levels = self.schedule.pair_levels
        fixed = self._fixed_mask
        half_alpha = config.alpha / 2.0
        label_weight = 1.0 - config.alpha
        art = self._artificial_agreement
        label = self.label_matrix

        groups_first = self._degree_groups(self._graph_first)
        groups_second = self._degree_groups(self._graph_second)
        blocks: list[_DegreeBlock] = []
        for degree_first, group_first in groups_first.items():
            for degree_second, group_second in groups_second.items():
                rows = np.repeat(group_first.nodes.astype(np.int64), len(group_second.nodes))
                cols = np.tile(group_second.nodes.astype(np.int64), len(group_first.nodes))
                row_pos = np.repeat(
                    np.arange(len(group_first.nodes), dtype=np.int32),
                    len(group_second.nodes),
                )
                col_pos = np.tile(
                    np.arange(len(group_second.nodes), dtype=np.int32),
                    len(group_first.nodes),
                )
                keep = ~fixed[rows, cols]
                if not keep.any():
                    continue
                rows, cols = rows[keep], cols[keep]
                row_pos, col_pos = row_pos[keep], col_pos[keep]
                order, levels = prefix_schedule(np.asarray(pair_levels[rows, cols], dtype=float))
                rows, cols = rows[order], cols[order]
                row_pos, col_pos = row_pos[order], col_pos[order]
                # |pre(v)| includes the artificial predecessor (+1).
                inverse_first = 1.0 / (degree_first + 1)
                inverse_second = 1.0 / (degree_second + 1)
                base = (half_alpha * (inverse_first + inverse_second)) * art[rows, cols]
                if label_weight:
                    base = base + label_weight * label[rows, cols]
                blocks.append(
                    _DegreeBlock(
                        linear=rows * n2 + cols,
                        row_pos=row_pos,
                        col_pos=col_pos,
                        levels=levels,
                        base=np.asarray(base, dtype=dtype),
                        group_first=group_first,
                        group_second=group_second,
                        inverse_first=inverse_first,
                        inverse_second=inverse_second,
                    )
                )

        # Cached mode: below the limit, materialize the flat contribution
        # arrays once instead of regenerating them every iteration.
        total_contributions = sum(
            len(block.linear)
            * block.group_first.preds.shape[1]
            * block.group_second.preds.shape[1]
            for block in blocks
        )
        if total_contributions <= _SPARSE_CACHE_LIMIT:
            for block in blocks:
                if not block.group_first.preds.shape[1] or not block.group_second.preds.shape[1]:
                    continue
                block.preds_first = block.group_first.preds[block.row_pos]
                block.preds_second = block.group_second.preds[block.col_pos]
                if config.use_edge_weights:
                    left = block.group_first.weights[block.row_pos][:, :, None]
                    right = block.group_second.weights[block.col_pos][:, None, :]
                    block.agreement = config.c * (
                        1.0 - np.abs(left - right) / (left + right)
                    )
        return blocks

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
        if self._blocks is None:
            self._blocks = self._build_blocks()
        config = self.config
        use_pruning = config.use_pruning
        use_weights = config.use_edge_weights
        half_alpha = config.alpha / 2.0
        c = config.c
        previous = self.values.copy()

        # Phase 1: evaluate formula (1) chunk by chunk.  All reads go to
        # `previous` (Jacobi iteration), so chunk order is irrelevant.
        pending: list[tuple[np.ndarray, np.ndarray]] = []
        total_active = 0
        for block in self._blocks:
            if use_pruning:
                count = active_prefix_length(block.levels, iteration)
                if count == 0:
                    continue
            else:
                count = len(block.linear)
            degree_first = block.group_first.preds.shape[1]
            degree_second = block.group_second.preds.shape[1]
            updated = np.empty(count, dtype=self._dtype)
            if degree_first == 0 or degree_second == 0:
                # Only the artificial predecessor on at least one side:
                # the real grid is empty and the pair is its base term.
                updated[:] = block.base[:count]
            else:
                scale_first = half_alpha * block.inverse_first
                scale_second = half_alpha * block.inverse_second
                grid = degree_first * degree_second
                chunk = max(1, _SPARSE_CHUNK_TARGET // grid)
                for start in range(0, count, chunk):
                    stop = min(start + chunk, count)
                    if block.preds_first is not None:
                        p1 = block.preds_first[start:stop]
                        p2 = block.preds_second[start:stop]
                    else:
                        p1 = block.group_first.preds[block.row_pos[start:stop]]
                        p2 = block.group_second.preds[block.col_pos[start:stop]]
                    gathered = previous[p1[:, :, None], p2[:, None, :]]
                    if block.agreement is not None:
                        gathered *= block.agreement[start:stop]
                    elif use_weights:
                        left = block.group_first.weights[block.row_pos[start:stop]][:, :, None]
                        right = block.group_second.weights[block.col_pos[start:stop]][:, None, :]
                        gathered *= c * (1.0 - np.abs(left - right) / (left + right))
                    else:
                        gathered *= c
                    forward = gathered.max(axis=2).sum(axis=1)
                    backward = gathered.max(axis=1).sum(axis=1)
                    updated[start:stop] = (
                        block.base[start:stop]
                        + scale_first * forward
                        + scale_second * backward
                    )
            pending.append((block.linear[:count], updated))
            total_active += count

        # Phase 2: commit and charge the meter in one batched call.
        return self._commit_pending(pending, previous, total_active, meter)

    def _commit_pending(
        self,
        pending: list[tuple[np.ndarray, np.ndarray]],
        previous: np.ndarray,
        total_active: int,
        meter: BudgetMeter | None,
    ) -> float:
        """Phase 2 of an iteration: write updates, charge, report delta.

        *pending* is a list of ``(linear, updated)`` pairs, where
        ``linear`` is the row-major linear index ``i * n2 + j`` of each
        evaluated pair.  Budget semantics are those of the per-pair loop
        of formula (1), which visits pairs in row-major order and charges
        one tick per pair: the meter is charged once via ``tick(n)``, and
        when the pair-update cap would trip mid-iteration only the
        row-major prefix of ``remaining + 1`` updates that loop would have
        committed is written before the raise, leaving ``values`` in the
        same valid best-so-far state.
        """
        n2 = self._n2
        remaining = meter.pair_updates_remaining if meter is not None else None
        committed = 0
        max_delta = 0.0
        try:
            if remaining is not None and total_active > remaining:
                # The cap trips mid-iteration.  The reference loop visits
                # pairs in row-major order and writes the pair whose tick
                # raises before raising, so `remaining + 1` pairs commit.
                allowed = remaining + 1
                linear = np.concatenate([entry[0] for entry in pending])
                updated = np.concatenate([entry[1] for entry in pending])
                first = np.argsort(linear, kind="stable")[:allowed]
                linear, updated = linear[first], updated[first]
                rows, cols = np.divmod(linear, n2)
                deltas = np.abs(updated - previous[rows, cols])
                self.values[rows, cols] = updated
                committed = allowed
                max_delta = float(deltas.max()) if deltas.size else 0.0
                meter.tick(allowed)
                raise AssertionError("pair-update budget charge must have raised")
            for linear, updated in pending:
                rows, cols = np.divmod(linear, n2)
                deltas = np.abs(updated - previous[rows, cols])
                if deltas.size:
                    delta = float(deltas.max())
                    if delta > max_delta:
                        max_delta = delta
                self.values[rows, cols] = updated
            committed = total_active
            if meter is not None:
                meter.tick(total_active)
        finally:
            self.pair_updates += committed
        return max_delta

    def finished(self) -> bool:
        return self.converged or self.iterations >= self.config.max_iterations

    def advance(self) -> None:
        """One step plus convergence bookkeeping."""
        delta = self.step()
        if delta < self.config.epsilon or (
            self.config.use_pruning and self.schedule.all_fixed_after(self.iterations)
        ):
            self.converged = True

    def run_exact(self) -> None:
        while not self.finished():
            self.advance()

    def run_estimated(self, exact_iterations: int) -> None:
        """``EMS+es``: *exact_iterations* exact steps, then formula (2)."""
        while self.iterations < exact_iterations and not self.finished():
            self.advance()
        if self.converged:
            return  # exact values everywhere; nothing to estimate
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
        ``pruning.freeze`` marker per direction; without one (the
        default) the fixpoint loops run on the exact same code path as
        before — iteration spans are only driven when tracing is on, so
        the observer never perturbs results or hot-loop cost.
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
    ) -> list[_DirectionalRun]:
        label = self._label_matrix(first, second)
        runs: list[_DirectionalRun] = []
        if self.config.direction in ("forward", "both"):
            runs.append(
                _DirectionalRun(first, second, self.config, label, fixed_forward, meter)
            )
        if self.config.direction in ("backward", "both"):
            runs.append(
                _DirectionalRun(
                    first.reversed(), second.reversed(), self.config, label,
                    fixed_backward, meter,
                )
            )
        return runs

    def _directional_names(self) -> list[str]:
        return (
            ["forward", "backward"] if self.config.direction == "both"
            else [self.config.direction]
        )

    def _drive(self, run: "_DirectionalRun", direction: str) -> None:
        """Run one directional fixpoint, tracing iterations when asked.

        With tracing off this is exactly the pre-observability code path
        (`run_exact` / `run_estimated`); with tracing on, each exact
        iteration gets an ``ems.iteration[k]`` span.  The two paths call
        the same ``advance``/``run_estimated`` machinery, so results and
        accounting are bit-identical either way.
        """
        obs = self.observer
        exact = self.config.estimation_iterations
        if not obs.tracing:
            if exact is not None:
                run.run_estimated(exact)
            else:
                run.run_exact()
            return
        tracer = obs.tracer
        while not run.finished() and (exact is None or run.iterations < exact):
            before = run.pair_updates
            with tracer.span(
                f"ems.iteration[{run.iterations}]", direction=direction
            ) as span:
                run.advance()
                span.attributes["pair_updates"] = run.pair_updates - before
        if exact is not None:
            run.run_estimated(run.iterations)

    def _freeze_event(self, run: "_DirectionalRun", direction: str) -> None:
        """Record the post-run freeze accounting (Uc / Proposition 2)."""
        obs = self.observer
        if not obs.enabled:
            return
        fixed_mask = getattr(run, "_fixed_mask", None)
        obs.event(
            "pruning.freeze",
            direction=direction,
            fixed_pairs=0 if fixed_mask is None else int(fixed_mask.sum()),
            iterations=run.iterations,
            pair_updates=run.pair_updates,
            converged=run.converged,
            estimated=run.estimated,
        )
        obs.count("ems_pair_updates_total", run.pair_updates)

    def _result(self, first: DependencyGraph, second: DependencyGraph,
                runs: list[_DirectionalRun]) -> EMSResult:
        combined = combine_directional([run.real_values() for run in runs])
        matrix = SimilarityMatrix(first.nodes, second.nodes, combined)
        directional: dict[str, SimilarityMatrix] = {}
        names = (
            ["forward", "backward"] if self.config.direction == "both"
            else [self.config.direction]
        )
        for name, run in zip(names, runs):
            directional[name] = SimilarityMatrix(first.nodes, second.nodes, run.real_values())
        return EMSResult(
            matrix=matrix,
            iterations=sum(run.iterations for run in runs),
            pair_updates=sum(run.pair_updates for run in runs),
            converged=all(run.converged for run in runs),
            estimated=any(run.estimated for run in runs),
            directional=directional,
        )

    # ------------------------------------------------------------------
    def similarity(
        self,
        first: DependencyGraph,
        second: DependencyGraph,
        fixed_forward: FixedPairs = None,
        fixed_backward: FixedPairs = None,
        meter: BudgetMeter | None = None,
    ) -> EMSResult:
        """Compute the pairwise similarity matrix of the two graphs.

        ``fixed_forward`` / ``fixed_backward`` seed pairs whose converged
        value is already known (Proposition 4); they are never iterated.
        A *meter* makes the computation cooperatively cancellable:
        :class:`~repro.exceptions.BudgetExhausted` propagates to the
        caller (use :meth:`similarity_resilient` for the degradation
        ladder instead).
        """
        obs = self.observer
        with obs.span(
            "ems.fixpoint",
            pairs=len(first.nodes) * len(second.nodes),
            dtype=self.config.dtype,
        ):
            runs = self._runs(first, second, fixed_forward, fixed_backward, meter)
            for direction, run in zip(self._directional_names(), runs):
                self._drive(run, direction)
                self._freeze_event(run, direction)
        obs.count("ems_fixpoint_total")
        return self._result(first, second, runs)

    def similarity_resilient(
        self,
        first: DependencyGraph,
        second: DependencyGraph,
        meter: BudgetMeter | None,
        policy: DegradationPolicy | None = None,
        fixed_forward: FixedPairs = None,
        fixed_backward: FixedPairs = None,
    ) -> tuple[EMSResult, str, str | None]:
        """:meth:`similarity` with the graceful-degradation ladder.

        Returns ``(result, stage, reason)`` where *stage* is one of
        ``"exact"`` (completed within budget), ``"estimated"`` (budget
        exhausted; the Section 3.5 closed form filled in unconverged
        pairs from however many exact iterations ran) or ``"partial"``
        (best-so-far values as-is), and *reason* is the exhausted budget
        axis (``None`` when exact).  With a ladder fully disabled by
        *policy*, :class:`~repro.exceptions.BudgetExhausted` propagates.
        """
        if policy is None:
            policy = DegradationPolicy()
        obs = self.observer
        with obs.span(
            "ems.fixpoint",
            pairs=len(first.nodes) * len(second.nodes),
            dtype=self.config.dtype,
            budgeted=meter is not None,
        ) as span:
            runs = self._runs(first, second, fixed_forward, fixed_backward, meter)
            try:
                for direction, run in zip(self._directional_names(), runs):
                    self._drive(run, direction)
                    self._freeze_event(run, direction)
                return self._result(first, second, runs), STAGE_EXACT, None
            except BudgetExhausted as error:
                span.attributes["budget_exhausted"] = error.reason
                obs.count("budget_exhausted_total")
                if policy.allow_estimation:
                    # The closed form needs no further iterations: asking
                    # for exactly the iterations already performed makes
                    # run_estimated apply formula (2) to the current state.
                    for run in runs:
                        run.run_estimated(run.iterations)
                    return (
                        self._result(first, second, runs),
                        STAGE_ESTIMATED,
                        error.reason,
                    )
                if policy.allow_partial:
                    return (
                        self._result(first, second, runs),
                        STAGE_PARTIAL,
                        error.reason,
                    )
                raise

    def similarity_with_abort(
        self,
        first: DependencyGraph,
        second: DependencyGraph,
        abort_below: float,
        fixed_forward: FixedPairs = None,
        fixed_backward: FixedPairs = None,
        meter: BudgetMeter | None = None,
    ) -> EMSResult | None:
        """Like :meth:`similarity`, but give up early when hopeless.

        After every iteration the upper bound of the final *average*
        similarity (Proposition 6 / Corollary 7, averaged over directions)
        is compared against *abort_below*; if it falls strictly below,
        ``None`` is returned — the candidate cannot beat the incumbent.
        This is the *Bd* pruning of Section 4.3.
        """
        obs = self.observer
        with obs.span(
            "ems.fixpoint",
            pairs=len(first.nodes) * len(second.nodes),
            dtype=self.config.dtype,
            abort_below=abort_below,
        ) as span:
            runs = self._runs(first, second, fixed_forward, fixed_backward, meter)
            # Lockstep: advance each unfinished run one iteration, then
            # check the combined bound, so hopeless candidates die at the
            # first possible moment.
            exact_budget = self.config.estimation_iterations
            while True:
                active = [
                    run
                    for run in runs
                    if not run.finished()
                    and (exact_budget is None or run.iterations < exact_budget)
                ]
                if not active:
                    break
                for run in active:
                    run.advance()
                bound = float(np.mean([run.average_bound() for run in runs]))
                if bound < abort_below:
                    span.attributes["aborted"] = True
                    obs.count("ems_bound_aborts_total")
                    return None
            if exact_budget is not None:
                for run in runs:
                    run.run_estimated(exact_budget)
            for direction, run in zip(self._directional_names(), runs):
                self._freeze_event(run, direction)
        obs.count("ems_fixpoint_total")
        return self._result(first, second, runs)

    # ------------------------------------------------------------------
    def pair_similarity(
        self, first: DependencyGraph, second: DependencyGraph, node_first: str, node_second: str
    ) -> float:
        """Convenience: the converged similarity of one pair."""
        return self.similarity(first, second).matrix.get(node_first, node_second)


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
