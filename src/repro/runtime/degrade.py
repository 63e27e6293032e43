"""The graceful-degradation ladder.

When a budget runs out mid-computation the engine does not throw the
partial work away.  The :class:`DegradationPolicy` names the rungs it may
step down to, in order:

1. **exact** — the run finished as requested; nothing to degrade.
2. **estimated** — unconverged pairs are filled in with the paper's
   closed-form estimation (Section 3.5, formula (2)) applied to however
   many exact iterations actually ran.  The estimation itself is one
   closed-form array evaluation, so it always fits in the leftover instant.
3. **partial** — the best-so-far similarity values are returned as-is
   (marked unconverged).  For composite matching this rung also covers a
   greedy search cut short between rounds: the matrix of the last
   accepted merge state is complete, only the search was truncated.

With both rungs disabled (:meth:`DegradationPolicy.none`) the
:class:`~repro.exceptions.BudgetExhausted` propagates to the caller — the
CLI maps that to exit code 3.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class DegradationPolicy:
    """Which rungs of the ladder a budgeted run may step down to."""

    allow_estimation: bool = True
    allow_partial: bool = True

    @classmethod
    def full(cls) -> "DegradationPolicy":
        """The default: estimation first, then best-so-far partial."""
        return cls(allow_estimation=True, allow_partial=True)

    @classmethod
    def estimation_only(cls) -> "DegradationPolicy":
        return cls(allow_estimation=True, allow_partial=False)

    @classmethod
    def partial_only(cls) -> "DegradationPolicy":
        return cls(allow_estimation=False, allow_partial=True)

    @classmethod
    def none(cls) -> "DegradationPolicy":
        """No fallback: budget exhaustion raises."""
        return cls(allow_estimation=False, allow_partial=False)

    @property
    def enabled(self) -> bool:
        return self.allow_estimation or self.allow_partial
