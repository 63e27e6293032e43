"""Test oracle for the EMS fixpoint (formula (1)).

:class:`ReferenceRun` evaluates one iteration the straightforward way: a
Python double loop over the real pairs in row-major order, each pair
gathering its full predecessor grid — the artificial predecessor ``v^X``
included — through an open mesh and charging the budget meter one tick
at a time.  It is the readable specification the production CSR kernel
(:class:`repro.core.ems._DirectionalRun`) is differentially tested
against.  Nothing in ``src/`` knows about it: :func:`reference_kernel`
swaps it in for ``repro.core.ems._DirectionalRun`` while a block runs,
so every :class:`~repro.core.ems.EMSEngine` call inside — including the
ones a serial composite search makes — iterates with it.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core import ems
from repro.graph.dependency import ARTIFICIAL, DependencyGraph


def fixed_pairs_start(
    first: DependencyGraph,
    second: DependencyGraph,
    pairs: dict[tuple[str, str], float] | None,
    dtype: np.dtype = np.float64,
) -> ems.WarmStart | None:
    """The :class:`~repro.core.ems.WarmStart` that pins *pairs*.

    *pairs* maps ``(node of first, node of second)`` to a fixed value.
    Pairs naming a node either graph lacks are skipped, and values are
    narrowed to *dtype* (the run dtype), as a fixpoint seeding those
    cells one by one would.  ``None`` stays ``None``.
    """
    if pairs is None:
        return None
    index_first = {node: i for i, node in enumerate(first.nodes)}
    index_second = {node: j for j, node in enumerate(second.nodes)}
    shape = (len(index_first), len(index_second))
    values = np.zeros(shape, dtype=dtype)
    dirty = np.ones(shape, dtype=bool)
    for (node_first, node_second), value in pairs.items():
        i = index_first.get(node_first)
        j = index_second.get(node_second)
        if i is None or j is None:
            continue
        values[i, j] = value
        dirty[i, j] = False
    return ems.WarmStart(values=values, dirty=dirty)


def _predecessor_lists(
    graph: DependencyGraph, index: dict[str, int], dtype: np.dtype
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per real node: predecessor rows into the value array, in-edge weights."""
    preds: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    for node in graph.nodes:
        sources = graph.predecessors(node)
        preds.append(np.array([index[p] for p in sources], dtype=int))
        weights.append(
            np.array([graph.edge_frequency(p, node) for p in sources], dtype=dtype)
        )
    return preds, weights


class ReferenceRun(ems._DirectionalRun):
    """The per-pair loop of formula (1) behind the production interface."""

    def __init__(self, first, second, config, label_matrix, fixed_pairs=None, meter=None,
                 scratch=None):
        super().__init__(first, second, config, label_matrix, fixed_pairs, meter, scratch)
        index_first = {node: i for i, node in enumerate(self.nodes_first)}
        index_first[ARTIFICIAL] = self._n1
        index_second = {node: j for j, node in enumerate(self.nodes_second)}
        index_second[ARTIFICIAL] = self._n2
        self._preds_first, self._weights_first = _predecessor_lists(
            first, index_first, self._dtype
        )
        self._preds_second, self._weights_second = _predecessor_lists(
            second, index_second, self._dtype
        )
        # Per-pair cache, built lazily: (edge-agreement matrix, open-mesh
        # ancestor index, 1/|pre(v1)|, 1/|pre(v2)|).
        self._pair_cache: dict[
            tuple[int, int], tuple[np.ndarray, tuple[np.ndarray, np.ndarray], float, float]
        ] = {}

    def _pair_entry(
        self, i: int, j: int
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], float, float]:
        cached = self._pair_cache.get((i, j))
        if cached is None:
            if self.config.use_edge_weights:
                agreement = ems.edge_agreement(
                    self._weights_first[i], self._weights_second[j], self.config.c
                )
            else:
                # Ablation: plain SimRank-style constant decay, no edge
                # similarity (see EMSConfig.use_edge_weights).
                agreement = np.full(
                    (len(self._weights_first[i]), len(self._weights_second[j])),
                    self.config.c,
                    dtype=self._dtype,
                )
            mesh = np.ix_(self._preds_first[i], self._preds_second[j])
            cached = (
                agreement,
                mesh,
                1.0 / len(self._preds_first[i]),
                1.0 / len(self._preds_second[j]),
            )
            self._pair_cache[(i, j)] = cached
        return cached

    def step(self) -> float:
        meter = self._meter
        if meter is not None:
            meter.check()
        self.iterations += 1
        iteration = self.iterations
        alpha = self.config.alpha
        previous = self.values.copy()
        pair_levels = self.schedule.pair_levels
        use_pruning = self.config.use_pruning
        label = self.label_matrix
        fixed = self._fixed_mask
        half_alpha = alpha / 2.0
        label_weight = 1.0 - alpha
        max_delta = 0.0
        updates = 0
        try:
            for i in range(self._n1):
                for j in range(self._n2):
                    if fixed[i, j]:
                        continue
                    if use_pruning and iteration > pair_levels[i, j]:
                        continue
                    agreement, mesh, inverse_a, inverse_b = self._pair_entry(i, j)
                    weighted = agreement * previous[mesh]
                    s_forward = weighted.max(axis=1).sum() * inverse_a
                    s_backward = weighted.max(axis=0).sum() * inverse_b
                    updated = half_alpha * (s_forward + s_backward)
                    if label_weight:
                        updated += label_weight * label[i, j]
                    updates += 1
                    delta = abs(updated - previous[i, j])
                    if delta > max_delta:
                        max_delta = delta
                    self.values[i, j] = updated
                    if meter is not None:
                        meter.tick()
        finally:
            self.pair_updates += updates
        return max_delta


@contextmanager
def reference_kernel():
    """Run every fixpoint started inside the block on :class:`ReferenceRun`."""
    original = ems._DirectionalRun
    ems._DirectionalRun = ReferenceRun
    try:
        yield
    finally:
        ems._DirectionalRun = original
