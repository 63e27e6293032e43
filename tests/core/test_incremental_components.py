"""Unit tests for the incremental-engine building blocks.

Covers the :class:`WarmStart` fixpoint seeding, the LRU-bounded
:class:`LabelMatrixCache` and the log-space guard in the Section-3.5
estimation.
"""

import numpy as np
import pytest

from repro.core.config import EMSConfig
from repro.core.ems import LABEL_CACHE_ENTRIES, EMSEngine, LabelMatrixCache, WarmStart
from repro.core.estimation import estimate_matrix, estimate_pair
from repro.graph.dependency import DependencyGraph
from repro.logs.log import EventLog


def small_logs() -> tuple[EventLog, EventLog]:
    first = EventLog([["a", "b", "c"], ["a", "c", "d"], ["b", "d"]], name="L1")
    second = EventLog([["a", "b", "c"], ["a", "b", "d"], ["c", "d"]], name="L2")
    return first, second


class TestWarmStart:
    def test_matches_dict_fixed_pairs(self):
        first, second = small_logs()
        g1, g2 = DependencyGraph.from_log(first), DependencyGraph.from_log(second)
        engine = EMSEngine(EMSConfig(alpha=1.0, direction="both"))
        fixed = {("a", "a"): 0.73, ("b", "d"): 0.21}

        cold = engine.similarity(g1, g2, fixed_forward=fixed, fixed_backward=fixed)

        values = np.zeros((len(g1.nodes), len(g2.nodes)))
        dirty = np.ones_like(values, dtype=bool)
        row = {node: i for i, node in enumerate(g1.nodes)}
        col = {node: j for j, node in enumerate(g2.nodes)}
        for (v1, v2), value in fixed.items():
            values[row[v1], col[v2]] = value
            dirty[row[v1], col[v2]] = False
        warm_start = WarmStart(values=values, dirty=dirty)
        warm = engine.similarity(
            g1, g2, fixed_forward=warm_start, fixed_backward=warm_start
        )

        np.testing.assert_array_equal(cold.matrix.values, warm.matrix.values)
        assert cold.pair_updates == warm.pair_updates
        assert cold.iterations == warm.iterations

    def test_pairs_fixed_property(self):
        dirty = np.array([[True, False], [False, False]])
        warm = WarmStart(values=np.zeros((2, 2)), dirty=dirty)
        assert warm.pairs_fixed == 3

    def test_shape_mismatch_rejected(self):
        first, second = small_logs()
        g1, g2 = DependencyGraph.from_log(first), DependencyGraph.from_log(second)
        engine = EMSEngine(EMSConfig(alpha=1.0, direction="forward"))
        bad = WarmStart(values=np.zeros((2, 2)), dirty=np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            engine.similarity(g1, g2, fixed_forward=bad)

    def test_all_dirty_equals_cold_start(self):
        first, second = small_logs()
        g1, g2 = DependencyGraph.from_log(first), DependencyGraph.from_log(second)
        engine = EMSEngine(EMSConfig(alpha=1.0, direction="forward"))
        shape = (len(g1.nodes), len(g2.nodes))
        warm_start = WarmStart(values=np.zeros(shape), dirty=np.ones(shape, dtype=bool))
        cold = engine.similarity(g1, g2)
        warm = engine.similarity(g1, g2, fixed_forward=warm_start)
        np.testing.assert_array_equal(cold.matrix.values, warm.matrix.values)
        assert cold.pair_updates == warm.pair_updates


class TestLabelMatrixCache:
    @staticmethod
    def _counting_label():
        calls = [0]

        def label(first: str, second: str) -> float:
            calls[0] += 1
            return 0.5

        return label, calls

    def _fill(self, cache: LabelMatrixCache, count: int) -> None:
        label, _ = self._counting_label()
        for k in range(count):
            cache.matrix((f"a{k}", f"b{k}"), (f"x{k}", f"y{k}"), label)

    def test_default_cap(self):
        cache = LabelMatrixCache()
        self._fill(cache, LABEL_CACHE_ENTRIES + 5)
        assert len(cache) == LABEL_CACHE_ENTRIES
        assert cache.evictions == 5

    def test_cap_respected(self):
        cache = LabelMatrixCache(max_entries=4)
        self._fill(cache, 20)
        assert len(cache) <= 4

    def test_lru_eviction_order(self):
        cache = LabelMatrixCache(max_entries=2)
        label, calls = self._counting_label()
        cache.matrix(("a",), ("x",), label)
        cache.matrix(("b",), ("x",), label)
        first_calls = calls[0]
        cache.matrix(("a",), ("x",), label)  # touch: ("a",) is now most recent
        assert calls[0] == first_calls  # served from cache
        cache.matrix(("c",), ("y",), label)  # evicts ("b",), not ("a",)
        cache.matrix(("a",), ("x",), label)  # still cached (cell cache aside)
        assert len(cache) == 2
        before = calls[0]
        cache.matrix(("b",), ("z",), label)  # was evicted: recomputed
        assert calls[0] == before + 1

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            LabelMatrixCache(max_entries=0)
        with pytest.raises(ValueError):
            LabelMatrixCache(max_entries=-3)

    def test_dtype_keys_are_distinct(self):
        """A float32 run must never reuse (or upcast) a float64 matrix."""
        label, _ = self._counting_label()
        cache = LabelMatrixCache()
        wide = cache.matrix(("a", "b"), ("x",), label)
        narrow = cache.matrix(("a", "b"), ("x",), label, dtype=np.float32)
        assert wide.dtype == np.float64
        assert narrow.dtype == np.float32
        assert wide is not narrow
        assert len(cache) == 2  # one entry per (rows, cols, dtype)
        np.testing.assert_allclose(narrow, wide.astype(np.float32))
        # Repeat requests hit their own dtype's entry.
        assert cache.matrix(("a", "b"), ("x",), label) is wide
        assert cache.matrix(("a", "b"), ("x",), label, dtype=np.float32) is narrow

    def test_dtype_miss_reuses_scalar_cells(self):
        """The cell cache is dtype-free: a narrowed rebuild costs no calls."""
        label, calls = self._counting_label()
        cache = LabelMatrixCache()
        cache.matrix(("a",), ("x", "y"), label)
        after_wide = calls[0]
        cache.matrix(("a",), ("x", "y"), label, dtype=np.float32)
        assert calls[0] == after_wide


class TestEstimationOverflowGuard:
    def test_huge_level_matrix_no_underflow(self):
        q = np.array([[0.5, 0.3], [0.0, 0.79]])
        a = np.array([[0.1, 0.2], [0.3, 0.05]])
        exact = np.full((2, 2), 0.4)
        levels = np.full((2, 2), 10_000.0)
        with np.errstate(under="raise", over="raise"):
            result = estimate_matrix(exact, q, a, levels, exact_iterations=2)
        # q^(h - I) is indistinguishable from 0 at h = 10_000: the estimate
        # collapses to the geometric limit a / (1 - q), clipped at 1.
        expected = np.minimum(1.0, a / (1.0 - q))
        np.testing.assert_allclose(result, expected, rtol=0, atol=1e-300)

    def test_huge_level_scalar_no_underflow(self):
        with np.errstate(under="raise"):
            value = estimate_pair(0.4, q=0.5, a=0.1, level=10_000, exact_iterations=0)
        assert value == pytest.approx(0.1 / 0.5)

    def test_moderate_level_unchanged_by_guard(self):
        # Well inside the representable range the log-space path must agree
        # with the direct power.
        q = np.array([[0.5]])
        a = np.array([[0.1]])
        exact = np.array([[0.3]])
        result = estimate_matrix(exact, q, a, np.array([[20.0]]), exact_iterations=4)
        q_pow = 0.5 ** 16
        assert result[0, 0] == pytest.approx(q_pow * 0.3 + 0.1 * (1 - q_pow) / 0.5)

