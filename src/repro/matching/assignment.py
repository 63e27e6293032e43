"""Maximum-weight bipartite assignment (Hungarian / Munkres algorithm).

The paper selects event correspondences with "the maximum total similarity
selection method" citing Munkres [17].  This is the O(n^3)
potential-based Hungarian algorithm, written from scratch with NumPy
(SciPy is a test dependency only); the test suite pins it to the
per-column loop of ``tests/hungarian_oracle.py`` assignment for
assignment and property-checks it against
``scipy.optimize.linear_sum_assignment``.
"""

from __future__ import annotations

import numpy as np


def max_weight_assignment(weights: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-total-weight one-to-one assignment.

    Parameters
    ----------
    weights:
        A (possibly rectangular) matrix; entry ``[i, j]`` is the benefit of
        assigning row ``i`` to column ``j``.

    Returns
    -------
    list of (row, column) pairs.  Every row (or column, whichever side is
    smaller) is assigned; filtering out weak pairs is the caller's job.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2:
        raise ValueError(f"weights must be a 2-D matrix, got shape {weights.shape}")
    if weights.size == 0:
        return []
    transposed = weights.shape[0] > weights.shape[1]
    if transposed:
        weights = weights.T
    # Convert maximization to minimization with non-negative costs.
    cost = weights.max() - weights
    rows_to_cols = _hungarian_min(cost)
    if transposed:
        return sorted((col, row) for row, col in rows_to_cols)
    return sorted(rows_to_cols)


def min_cost_assignment(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-total-cost one-to-one assignment (rectangular allowed)."""
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost must be a 2-D matrix, got shape {cost.shape}")
    if cost.size == 0:
        return []
    transposed = cost.shape[0] > cost.shape[1]
    if transposed:
        cost = cost.T
    rows_to_cols = _hungarian_min(cost)
    if transposed:
        return sorted((col, row) for row, col in rows_to_cols)
    return sorted(rows_to_cols)


def _hungarian_min(cost: np.ndarray) -> list[tuple[int, int]]:
    """Potential-based Hungarian algorithm for ``n <= m`` cost matrices.

    Classic O(n^2 m) formulation with dual potentials ``u`` (rows) and
    ``v`` (columns); ``p[j]`` is the row matched to column ``j`` (1-based,
    0 = free), ``way[j]`` remembers the augmenting path, and column 0 is
    the virtual start column of each augmentation.  Each step of a search
    scans all columns at once: the slack update, the choice of the next
    column (the first minimum slack among the unused columns) and the
    potential update are array operations on the same floats in the same
    order as the per-column loop of ``tests/hungarian_oracle.py``, so the
    assignment is the loop's, ties included.
    """
    n, m = cost.shape
    if n > m:
        raise ValueError("internal: _hungarian_min requires n <= m")
    if not np.isfinite(cost).all():
        # A NaN or infinite slack can keep the search from ever reaching
        # a free column.
        raise ValueError("cost must be finite")
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    p = np.zeros(m + 1, dtype=np.int64)
    way = np.zeros(m + 1, dtype=np.int64)
    # Slack of each column; +inf once the column is used, so the minimum
    # over `minv` is the minimum over the unused columns.
    minv = np.empty(m + 1)
    free = np.empty(m, dtype=bool)
    # The used columns of a search, and the rows matched to them.
    used_cols = np.empty(m + 1, dtype=np.int64)
    used_rows = np.empty(m + 1, dtype=np.int64)
    current = np.empty(m)
    better = np.empty(m, dtype=bool)
    # Views of the real columns 1..m.
    v_real, way_real, minv_real = v[1:], way[1:], minv[1:]
    for i in range(1, n + 1):
        p[0] = i
        j0, i0 = 0, i
        minv.fill(np.inf)
        free.fill(True)
        used_cols[0], used_rows[0] = 0, i
        n_used = 1
        while True:
            np.subtract(cost[i0 - 1], u[i0], out=current)
            current -= v_real
            np.less(current, minv_real, out=better)
            better &= free
            np.copyto(minv_real, current, where=better)
            np.copyto(way_real, j0, where=better)
            j1 = int(minv.argmin())
            delta = minv[j1]
            u[used_rows[:n_used]] += delta
            v[used_cols[:n_used]] -= delta
            minv -= delta
            j0 = j1
            i0 = int(p[j0])
            if i0 == 0:
                break
            used_cols[n_used], used_rows[n_used] = j0, i0
            n_used += 1
            free[j0 - 1] = False
            minv[j0] = np.inf
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return [(int(p[j]) - 1, j - 1) for j in range(1, m + 1) if p[j] != 0]


def assignment_weight(weights: np.ndarray, assignment: list[tuple[int, int]]) -> float:
    """Total weight of an assignment under *weights*."""
    return float(sum(weights[i, j] for i, j in assignment))
