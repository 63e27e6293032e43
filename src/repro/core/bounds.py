"""Similarity upper bounds (Lemma 5, Proposition 6, Corollary 7).

Lemma 5 bounds the per-iteration increase of any pair's similarity by
``(alpha*c)^n``; summing the geometric tail gives, after ``k`` exact
iterations:

* the general bound (Proposition 6)::

      S(v1, v2) <= S^k(v1, v2) + (alpha*c)^k / (1 - alpha*c)

* the level-aware bound (Corollary 7), when the pair is known to converge
  by iteration ``h``::

      S(v1, v2) <= S^k(v1, v2) + ((alpha*c)^k - (alpha*c)^h) / (1 - alpha*c)

Section 4.3 uses these to abort evaluating a composite-event candidate as
soon as the upper bound of its average similarity falls below the best
average found so far (the *Bd* pruning of Figure 12), keeping
:data:`ABORT_MARGIN` as slack.
"""

from __future__ import annotations

import math

import numpy as np

#: Strict-dominance margin of the Bd abort: the composite search lowers
#: the incumbent average by this much before handing it to a candidate
#: evaluation as its abort threshold.  A candidate is cut short only when
#: its bound falls below ``incumbent - ABORT_MARGIN``, so a near-tie is
#: always evaluated in full and float noise in the bound arithmetic can
#: never abort a candidate the exact evaluation would have selected.
ABORT_MARGIN = 1e-9


def pair_upper_bound(value: float, k: int, decay: float, h: float = math.inf) -> float:
    """Upper bound of the limit similarity after ``k`` iterations.

    Parameters
    ----------
    value:
        ``S^k(v1, v2)``, the similarity after the ``k``-th iteration.
    k:
        Number of completed iterations (>= 0).
    decay:
        ``alpha * c``; must be in [0, 1).
    h:
        The pair's convergence level ``min(l(v1), l(v2))`` if known
        (Corollary 7); ``inf`` gives the general bound (Proposition 6).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if not 0.0 <= decay < 1.0:
        raise ValueError(f"decay must be in [0, 1), got {decay}")
    if h <= k:
        return value  # already converged (Proposition 2)
    tail = decay**k if math.isinf(h) else decay**k - decay**h
    return min(1.0, value + tail / (1.0 - decay))


def matrix_upper_bound(
    values: np.ndarray, k: int, decay: float, pair_levels: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized :func:`pair_upper_bound` over a similarity matrix.

    ``pair_levels`` is the per-pair ``h`` array from
    :class:`repro.core.pruning.ConvergenceSchedule`; omit for the general
    bound.  Bounds are clipped to 1 (similarities cannot exceed 1).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if not 0.0 <= decay < 1.0:
        raise ValueError(f"decay must be in [0, 1), got {decay}")
    if pair_levels is None:
        tail = np.full_like(values, decay**k)
    else:
        finite = np.isfinite(pair_levels)
        tail = np.full_like(values, decay**k)
        with np.errstate(over="ignore"):
            tail[finite] = decay**k - decay ** pair_levels[finite]
        tail[pair_levels <= k] = 0.0
    bounded = values + tail / (1.0 - decay)
    return np.minimum(bounded, 1.0)


def average_upper_bound(
    values: np.ndarray, k: int, decay: float, pair_levels: np.ndarray | None = None
) -> float:
    """Upper bound of the *average* similarity after ``k`` iterations."""
    if values.size == 0:
        return 0.0
    return float(matrix_upper_bound(values, k, decay, pair_levels).mean())

