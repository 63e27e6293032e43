"""Test oracle for the Hungarian algorithm of :mod:`repro.matching.assignment`.

:func:`hungarian_min` is the textbook potential-based Hungarian method
written as plain Python loops: each step of an augmenting-path search
visits the columns one by one, updates their slack, and keeps the first
column of minimum slack.  It is the readable specification the
production ``_hungarian_min`` (the same steps as NumPy array operations)
is differentially tested against, assignment for assignment.
"""

from __future__ import annotations

import numpy as np


def hungarian_min(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost assignment of an ``n <= m`` matrix, as ``(row, col)`` pairs.

    ``u`` and ``v`` are the row and column potentials, ``p[j]`` is the row
    matched to column ``j`` (1-based, 0 = free) and ``way[j]`` remembers
    the augmenting path.
    """
    n, m = cost.shape
    if n > m:
        raise ValueError("hungarian_min requires n <= m")
    infinity = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    p = [0] * (m + 1)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [infinity] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = infinity
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                current = row[j - 1] - u[i0] - v[j]
                if current < minv[j]:
                    minv[j] = current
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return [(p[j] - 1, j - 1) for j in range(1, m + 1) if p[j] != 0]
