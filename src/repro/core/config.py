"""Configuration of the EMS similarity computation.

One dataclass gathers every knob that can change a similarity value
(plus the label-cache size, which cannot):

* ``alpha`` — weight of the structural part vs the label part
  (Definition 2); the paper's structural-only experiments use ``alpha = 1``.
* ``c`` — similarity decay across edges, the upper bound of the edge
  agreement factor ``C`` (Definition 2).  The paper's worked examples are
  consistent with ``c = 0.8``.
* ``epsilon`` — iteration stops when no pair moved by more than this
  (Section 3.2).
* ``direction`` — forward (predecessors), backward (successors), or the
  average of both; Section 3.6 notes that aggregating both directions is
  what fully addresses dislocated matching.
* ``use_pruning`` — early-convergence pruning (Proposition 2).
* ``estimation_iterations`` — the budget ``I`` of exact iterations before
  switching to the closed-form estimation (Section 3.5); ``None`` disables
  estimation (exact EMS).
* ``dtype`` — floating-point width of the similarity computation.
  ``"float64"`` (default) agrees with the per-pair reference loop of
  formula (1) to 1e-12; ``"float32"`` halves the memory of every
  value/agreement buffer at a ~1e-5 accuracy cost (rank-preserving in
  practice, see ``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

Direction = Literal["forward", "backward", "both"]
Dtype = Literal["float64", "float32"]

#: The NumPy dtypes backing :attr:`EMSConfig.dtype`.
_DTYPES: dict[str, np.dtype] = {
    "float64": np.dtype(np.float64),
    "float32": np.dtype(np.float32),
}


@dataclass(frozen=True, slots=True)
class EMSConfig:
    """Parameters of the EMS similarity (see module docstring)."""

    alpha: float = 1.0
    c: float = 0.8
    epsilon: float = 1e-4
    max_iterations: int = 100
    direction: Direction = "both"
    use_pruning: bool = True
    estimation_iterations: int | None = None
    #: Ablation switch: with False, the edge-agreement factor ``C`` is the
    #: constant ``c`` regardless of frequency differences — i.e. a plain
    #: SimRank-style propagation without the paper's edge similarities
    #: (Definition 2's second ingredient).  Keep True outside ablations.
    use_edge_weights: bool = True
    #: Floating-point width of the similarity computation ("float64" or
    #: "float32"); see module docstring.
    dtype: Dtype = "float64"
    #: LRU entry cap of the shared :class:`~repro.core.ems.LabelMatrixCache`
    #: (``None`` = unbounded).  Each entry is one whole label matrix plus
    #: headroom for 128 scalar cells.
    label_cache_entries: int | None = 512

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"c must be in (0, 1), got {self.c}")
        if self.alpha * self.c >= 1.0:
            raise ValueError(
                f"alpha * c must be < 1 for convergence (Theorem 1), got {self.alpha * self.c}"
            )
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.direction not in ("forward", "backward", "both"):
            raise ValueError(f"direction must be forward/backward/both, got {self.direction!r}")
        if self.estimation_iterations is not None and self.estimation_iterations < 0:
            raise ValueError(
                f"estimation_iterations must be >= 0 or None, got {self.estimation_iterations}"
            )
        if self.dtype not in _DTYPES:
            raise ValueError(
                f"dtype must be float64/float32, got {self.dtype!r}"
            )
        if self.label_cache_entries is not None and self.label_cache_entries < 1:
            raise ValueError(
                f"label_cache_entries must be >= 1 or None, got {self.label_cache_entries}"
            )

    def with_(self, **changes) -> "EMSConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **changes)

    @property
    def decay(self) -> float:
        """``alpha * c``: the per-iteration contraction factor (Lemma 5)."""
        return self.alpha * self.c

    @property
    def np_dtype(self) -> np.dtype:
        """The NumPy dtype backing :attr:`dtype`."""
        return _DTYPES[self.dtype]
