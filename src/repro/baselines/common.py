"""Common interface of event matchers (EMS and the baselines).

Every matcher consumes two event logs and produces a
:class:`MatchOutcome`: the selected correspondences, a scalar objective
(the quantity its own search maximizes — average similarity for EMS/BHV,
graph-edit similarity for GED, normal score for OPQ), and diagnostics for
the experiment reports.

The two-level API exists because of composite matching: the generic
greedy wrapper (:class:`repro.baselines.composite_wrapper.GreedyCompositeWrapper`)
re-invokes :meth:`EventMatcher.evaluate` on *merged* logs many times, so
``evaluate`` works on (log, member-map) pairs, while :meth:`match` is the
one-shot convenience for singleton matching.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping

from repro.logs.log import EventLog
from repro.matching.evaluation import Correspondence
from repro.runtime.report import RuntimeReport


@dataclass(frozen=True, slots=True)
class Evaluation:
    """One similarity evaluation on (possibly merged) logs.

    ``pairs`` holds matched node-name pairs over the merged vocabularies;
    ``objective`` is the matcher-specific score (higher is better).
    """

    objective: float
    pairs: tuple[tuple[str, str], ...]
    diagnostics: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class MatchOutcome:
    """Final result of a matcher run on two logs.

    ``runtime`` carries the resilient-runtime annotations (degradation
    stage, budget spend) for matchers that support budgets; baselines
    that never degrade leave it ``None``.
    """

    correspondences: tuple[Correspondence, ...]
    objective: float
    diagnostics: Mapping[str, float] = field(default_factory=dict)
    runtime: RuntimeReport | None = field(default=None, compare=False)


def identity_members(log: EventLog) -> dict[str, frozenset[str]]:
    return {activity: frozenset({activity}) for activity in log.activities()}


def pairs_to_outcome(
    evaluation: Evaluation,
    members_first: Mapping[str, frozenset[str]],
    members_second: Mapping[str, frozenset[str]],
    runtime: RuntimeReport | None = None,
) -> MatchOutcome:
    """Expand an :class:`Evaluation`'s node pairs into correspondences."""
    correspondences = tuple(
        Correspondence(
            members_first.get(left, frozenset({left})),
            members_second.get(right, frozenset({right})),
        )
        for left, right in evaluation.pairs
    )
    return MatchOutcome(
        correspondences, evaluation.objective, evaluation.diagnostics, runtime
    )


class EventMatcher(ABC):
    """Base class of all matchers.

    Subclasses implement :meth:`evaluate`; the default :meth:`match`
    evaluates the raw logs and expands pairs to 1:1 correspondences.
    """

    #: Short name used in experiment tables ("EMS", "GED", "OPQ", "BHV"...).
    name: str = "matcher"

    @abstractmethod
    def evaluate(
        self,
        log_first: EventLog,
        log_second: EventLog,
        members_first: Mapping[str, frozenset[str]],
        members_second: Mapping[str, frozenset[str]],
    ) -> Evaluation:
        """Score the two (possibly merged) logs and match their nodes."""

    def match(self, log_first: EventLog, log_second: EventLog) -> MatchOutcome:
        """One-shot singleton matching of two raw logs."""
        members_first = identity_members(log_first)
        members_second = identity_members(log_second)
        evaluation = self.evaluate(log_first, log_second, members_first, members_second)
        return pairs_to_outcome(evaluation, members_first, members_second)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
