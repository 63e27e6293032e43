"""Budgets and cooperative cancellation for matching runs.

A :class:`MatchBudget` bounds one matching job along two axes: a
wall-clock *deadline* and a cap on formula-(1) evaluations
(*pair updates* — the same work metric the paper plots in Figures 6 and
12).  Budgets are immutable descriptions; :meth:`MatchBudget.start`
produces a mutable :class:`BudgetMeter` that the hot loops charge and
check cooperatively.  When either axis is exhausted the meter raises
:class:`repro.exceptions.BudgetExhausted`, which the degradation ladder
(:mod:`repro.runtime.degrade`) catches to return a best-effort result
instead of dying.

The checks are cooperative by design: they run at iteration boundaries
and every :data:`_DEADLINE_STRIDE` pair updates inside an iteration, so
an unbudgeted run (``meter is None``) pays nothing and a budgeted run
pays one integer test per pair update.

:class:`InterruptGuard` is the third way a composite search is cut
short: it turns SIGINT/SIGTERM into a flag the greedy loop reads at
each round boundary, so the search returns its best-so-far result as a
``partial`` stage instead of dying mid-round.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass
from typing import Any, Callable

from repro.exceptions import BudgetExhausted
from repro.obs import get_logger
from repro.obs.clock import default_clock

_logger = get_logger(__name__)

#: How many pair updates pass between wall-clock reads on the hot path.
#: A power of two so the test compiles to a mask.
_DEADLINE_STRIDE = 256


@dataclass(frozen=True, slots=True)
class MatchBudget:
    """Resource bounds for one matching job.

    Parameters
    ----------
    deadline:
        Wall-clock seconds the job may spend, or ``None`` for unbounded.
        ``0.0`` is legal and means "already exhausted" — useful for
        forcing the degradation ladder in tests.
    max_pair_updates:
        Cap on formula-(1) evaluations across the whole job (all
        directions, all composite candidate evaluations), or ``None``.
    """

    deadline: float | None = None
    max_pair_updates: int | None = None

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline < 0.0:
            raise ValueError(f"deadline must be >= 0, got {self.deadline}")
        if self.max_pair_updates is not None and self.max_pair_updates < 0:
            raise ValueError(
                f"max_pair_updates must be >= 0, got {self.max_pair_updates}"
            )

    @property
    def unbounded(self) -> bool:
        return self.deadline is None and self.max_pair_updates is None

    def start(self, clock: Callable[[], float] | None = None) -> "BudgetMeter":
        """Begin metering against this budget (the clock starts now)."""
        return BudgetMeter(self, clock=clock)

    def describe(self) -> str:
        parts: list[str] = []
        if self.deadline is not None:
            parts.append(f"deadline {self.deadline:g}s")
        if self.max_pair_updates is not None:
            parts.append(f"max {self.max_pair_updates} pair updates")
        return ", ".join(parts) if parts else "unbounded"


class BudgetMeter:
    """Mutable spend tracker for one :class:`MatchBudget`.

    One meter is shared across every similarity evaluation of a job so
    the bounds apply to the job as a whole, not per evaluation.  The two
    entry points the hot loops use:

    * :meth:`check` — at iteration/round boundaries; tests both axes.
    * :meth:`tick` — once per pair update; counts work and re-reads the
      clock every :data:`_DEADLINE_STRIDE` updates.
    """

    __slots__ = ("budget", "pair_updates_spent", "_clock", "_started", "_deadline_at")

    def __init__(self, budget: MatchBudget, clock: Callable[[], float] | None = None):
        self.budget = budget
        self.pair_updates_spent = 0
        self._clock = clock if clock is not None else default_clock
        self._started = self._clock()
        self._deadline_at = (
            None if budget.deadline is None else self._started + budget.deadline
        )

    def elapsed(self) -> float:
        return self._clock() - self._started

    def exhausted_reason(self) -> str | None:
        """Which axis is exhausted, or ``None`` while within budget."""
        if self._deadline_at is not None and self._clock() > self._deadline_at:
            return "deadline"
        cap = self.budget.max_pair_updates
        if cap is not None and self.pair_updates_spent >= cap:
            return "pair-updates"
        return None

    def _raise(self, reason: str) -> None:
        if reason == "deadline":
            message = (
                f"wall-clock deadline of {self.budget.deadline:g}s exhausted "
                f"after {self.elapsed():.3f}s"
            )
        else:
            message = (
                f"pair-update budget of {self.budget.max_pair_updates} exhausted"
            )
        raise BudgetExhausted(
            message,
            reason=reason,
            elapsed=self.elapsed(),
            pair_updates=self.pair_updates_spent,
        )

    def check(self) -> None:
        """Raise :class:`BudgetExhausted` if either axis is exhausted."""
        reason = self.exhausted_reason()
        if reason is not None:
            self._raise(reason)

    def tick(self, n: int = 1) -> None:
        """Charge *n* pair updates (default 1); raise when the budget runs out.

        Charging a batch of ``n`` is equivalent to ``n`` single ticks:
        the spend is committed before any raise, the pair-update cap trips
        as soon as the cumulative spend exceeds it, and the wall clock is
        re-read whenever the batch crosses a :data:`_DEADLINE_STRIDE`
        boundary.  The EMS kernel charges whole iterations in one call;
        the per-pair reference loop charges pair by pair — both account
        identically against the same budget.
        """
        if n < 0:
            raise ValueError(f"tick charge must be >= 0, got {n}")
        if n == 0:
            return
        before = self.pair_updates_spent
        self.pair_updates_spent = before + n
        cap = self.budget.max_pair_updates
        if cap is not None and self.pair_updates_spent > cap:
            self._raise("pair-updates")
        if (
            self._deadline_at is not None
            and before // _DEADLINE_STRIDE != self.pair_updates_spent // _DEADLINE_STRIDE
            and self._clock() > self._deadline_at
        ):
            self._raise("deadline")

    @property
    def pair_updates_remaining(self) -> int | None:
        """Pair updates left before the cap trips, or ``None`` (uncapped)."""
        cap = self.budget.max_pair_updates
        if cap is None:
            return None
        return max(0, cap - self.pair_updates_spent)

    def __repr__(self) -> str:
        return (
            f"BudgetMeter({self.budget.describe()}, "
            f"spent={self.pair_updates_spent}, elapsed={self.elapsed():.3f}s)"
        )


class InterruptGuard:
    """Cooperative SIGINT/SIGTERM handling for composite searches.

    Used as a context manager around a matching run: while active, the
    first signal sets :attr:`interrupted`, which the greedy loop reads
    before each round and answers with a ``partial`` result (reason
    ``"interrupted"``); a *second* signal restores the previous
    handler's behaviour, so an operator can still kill a stuck process
    with a repeated Ctrl-C.  A re-run over the same match store replays
    the finished evaluations.

    Signal handlers only install from the main thread; elsewhere (or
    with ``signals=()``) the guard degrades to an inert flag that
    :meth:`trip` can set programmatically — which is also how the
    deterministic fault-injection site ``search.round``/``interrupt``
    simulates a SIGTERM at an exact round boundary.
    """

    def __init__(self, signals: tuple[int, ...] = (signal.SIGINT, signal.SIGTERM)):
        self.signals = signals
        self.interrupted = False
        self.signal_name = ""
        self._previous: dict[int, Any] = {}

    def trip(self, name: str = "scripted") -> None:
        """Flag an interrupt without an actual signal (tests, faults)."""
        self.interrupted = True
        self.signal_name = name

    def _handle(self, signum: int, frame: Any) -> None:
        self.trip(signal.Signals(signum).name)
        # Let a second signal act on the previous handler: restore it.
        previous = self._previous.get(signum)
        if previous is not None:
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        _logger.warning(
            "%s received; finishing the current round, then returning a "
            "partial result",
            self.signal_name,
        )

    def __enter__(self) -> "InterruptGuard":
        for signum in self.signals:
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except ValueError:  # not the main thread
                self._previous.pop(signum, None)
                break
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for signum, previous in self._previous.items():
            try:
                if signal.getsignal(signum) == self._handle:
                    signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous.clear()
