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
average found so far (the *Bd* pruning of Figure 12).
"""

from __future__ import annotations

import math

import numpy as np

#: Strict-dominance margin used wherever a sound upper bound is compared
#: against an incumbent average (estimation screening, best-first cutoff,
#: the Bd abort of a candidate evaluation).
#: A candidate is skipped only when ``bound < incumbent - SCREEN_MARGIN``:
#: bounds within the margin of the incumbent are conservatively evaluated,
#: so float noise in the bound arithmetic can never skip a candidate the
#: exact evaluation would have selected.
SCREEN_MARGIN = 1e-9


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


def estimation_screen_bound(
    q: np.ndarray,
    a: np.ndarray,
    tolerance: float = 1e-9,
    max_rounds: int = 200,
) -> np.ndarray:
    """A sound per-pair upper bound on the converged similarity from ``(q, a)``.

    The Section-3.5 estimation coefficients satisfy, for *any* iterate,
    ``S^n(v1, v2) <= q * u + a`` whenever every pair's previous iterate is
    at most ``u``: the two directional terms of formula (1) are averages of
    ``max C * S`` with ``C <= c``, with the artificial predecessor pair
    contributing ``C_art * S(v1^X, v2^X) = C_art`` — exactly the split that
    produces ``q`` and ``a``.  Starting from the trivial ``u_0 = 1`` and
    refining ``u_{k+1} = max(min(1, q * u_k + a))`` therefore bounds every
    iterate by induction, hence the limit.  The refinement is monotone
    non-increasing, so iterating to a fixpoint tightens the bound without
    ever under-cutting the true similarity — this is what makes
    estimation-bound candidate screening trajectory-preserving: a candidate
    rejected because the mean of this bound cannot beat the incumbent
    average would also have been rejected by the exact evaluation.

    Returns the per-pair bound matrix (same shape as *q*).
    """
    if q.size == 0:
        return np.ones_like(q)
    u = 1.0
    bound = np.minimum(1.0, q * u + a)
    for _ in range(max_rounds):
        refined = float(bound.max())
        if refined >= u - tolerance:
            break
        u = refined
        bound = np.minimum(1.0, q * u + a)
    return bound
