"""Supervised execution: retry with backoff and poison quarantine.

A composite search evaluates many candidate merges per round.  Without
supervision, one failing evaluation (an injected chaos fault, a flaky
resource) aborts the whole search.  :func:`run_supervised` wraps one
evaluation in the two standard durability mechanisms:

* **retry with backoff** — a :class:`RetryPolicy` bounds attempts per
  candidate and spaces them with exponential backoff plus deterministic,
  seed-derived jitter (no live RNG, so chaos tests replay exactly);
* **poison quarantine** — a candidate that keeps failing is recorded
  with full provenance (:class:`QuarantineRecord`) and skipped, letting
  the round complete; deterministic (non-transient) exceptions are
  quarantined immediately without burning retries.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.exceptions import BudgetExhausted
from repro.obs import NULL_OBSERVER, Observer, get_logger
from repro.runtime.faults import TransientFault

_logger = get_logger(__name__)


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How hard to try before giving up on a candidate.

    ``max_attempts`` bounds evaluations of one candidate (first try
    included).  Backoff before attempt ``n+1`` is
    ``min(max_delay, base_delay * multiplier**(n-1))``, stretched by up
    to ``jitter`` (a fraction) using a :class:`random.Random` seeded
    from ``(seed, attempt)`` — deterministic, yet different per attempt.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, failed_attempt: int) -> float:
        """Seconds to back off after *failed_attempt* (1-based) failed."""
        if failed_attempt < 1:
            raise ValueError(f"failed_attempt must be >= 1, got {failed_attempt}")
        raw = min(
            self.max_delay, self.base_delay * self.multiplier ** (failed_attempt - 1)
        )
        if self.jitter:
            rng = random.Random(self.seed * 1_000_003 + failed_attempt)
            raw *= 1.0 + self.jitter * rng.random()
        return raw


@dataclass(frozen=True, slots=True)
class QuarantineRecord:
    """Provenance of one poison candidate set aside by the supervisor.

    Everything needed to reproduce the failure offline: which candidate
    (side + run), in which greedy round, under which configuration
    (``config_hash`` — the same content hash checkpoints are keyed by),
    how many attempts were burned, and the terminal exception.
    """

    side: int
    run: tuple[str, ...]
    round: int
    attempts: int
    error_type: str
    error_message: str
    config_hash: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "side": self.side,
            "run": list(self.run),
            "round": self.round,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "error_message": self.error_message,
            "config_hash": self.config_hash,
        }

    def describe(self) -> str:
        return (
            f"round {self.round} side {self.side} run {'+'.join(self.run)}: "
            f"{self.error_type} after {self.attempts} attempt(s)"
        )


@dataclass(slots=True)
class SupervisionStats:
    """Counters the supervisor accumulates across a whole match."""

    retries: int = 0
    quarantined: int = 0


def run_supervised(
    call: Callable[[int], Any],
    *,
    policy: RetryPolicy,
    describe: Callable[[], tuple[int, tuple[str, ...]]],
    round: int = 0,
    config_hash: str = "",
    observer: Observer | None = None,
    stats: SupervisionStats | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[Any, QuarantineRecord | None]:
    """Run one evaluation under *policy*: retry, then quarantine.

    ``call(attempt)`` performs the evaluation (the attempt number feeds
    fault hooks).  :class:`TransientFault` is retried under *policy*
    with its deterministic backoff; any other exception — except
    :class:`~repro.exceptions.BudgetExhausted` and interrupts, which
    propagate — quarantines the candidate immediately.  Returns
    ``(value, None)`` or ``(None, record)``.
    """
    observer = observer if observer is not None else NULL_OBSERVER
    attempt = 0
    last_error: BaseException | None = None
    while attempt < policy.max_attempts:
        if attempt > 0:
            if stats is not None:
                stats.retries += 1
            observer.count(
                "worker_retries_total",
                help="candidate evaluations re-submitted after a failure",
            )
            backoff = policy.delay(attempt)
            if backoff > 0:
                sleep(backoff)
        attempt += 1
        try:
            return call(attempt), None
        except BudgetExhausted:
            raise
        except TransientFault as error:
            last_error = error
            continue
        except Exception as error:
            last_error = error
            break
    side, run = describe()
    record = QuarantineRecord(
        side=side,
        run=tuple(run),
        round=round,
        attempts=attempt,
        error_type=type(last_error).__name__,
        error_message=str(last_error),
        config_hash=config_hash,
    )
    if stats is not None:
        stats.quarantined += 1
    observer.count(
        "candidates_quarantined_total",
        help="poison candidates set aside so their round could complete",
    )
    _logger.warning("quarantined candidate: %s", record.describe())
    return None, record
