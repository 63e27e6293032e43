"""Resilient matching runtime: budgets, degradation, faithful reporting.

Production event extracts are messy and production matching jobs need
wall-clock bounds.  This package supplies the runtime layer the matching
core threads through:

* :class:`MatchBudget` / :class:`BudgetMeter` — deadline and pair-update
  budgets, cooperatively checked inside the fixpoint loops; exhaustion
  raises :class:`~repro.exceptions.BudgetExhausted`.
* :class:`InterruptGuard` — cooperative SIGINT/SIGTERM handling that
  ends a composite search at a round boundary.
* :class:`DegradationPolicy` — the ladder exact → estimated → partial
  that turns budget exhaustion into a valid, annotated result.
* :class:`RuntimeReport` — how a run ended (stage, reason, spend),
  attached to every :class:`~repro.baselines.common.MatchOutcome`.
* :class:`IngestionReport` / :class:`RowIssue` — per-row accounting of
  what the fault-tolerant CSV/XES readers dropped or repaired.
* :class:`DeadLetterArchive` — content-addressed archive of ingestion
  records the readers rejected.
* :func:`search_content_key` — the content key of a composite search,
  under which its evaluations persist in a
  :class:`~repro.store.MatchStore`; an interrupted search resumes by
  re-running over the same store.
* :class:`FaultPlan` / :class:`FaultSpec` — the deterministic
  fault-injection harness exercising the interrupt and resume path.

See ``docs/robustness.md`` for the full model and the CLI exit codes.
"""

from repro.exceptions import BudgetExhausted
from repro.runtime.budget import BudgetMeter, InterruptGuard, MatchBudget
from repro.runtime.deadletter import DeadLetterArchive
from repro.runtime.degrade import DegradationPolicy
from repro.runtime.evalcache import search_content_key
from repro.runtime.faults import NO_FAULTS, FaultPlan, FaultSpec
from repro.runtime.report import (
    STAGE_ESTIMATED,
    STAGE_EXACT,
    STAGE_PARTIAL,
    STAGES,
    IngestionReport,
    RowIssue,
    RuntimeReport,
)

__all__ = [
    "BudgetExhausted",
    "BudgetMeter",
    "MatchBudget",
    "DegradationPolicy",
    "RuntimeReport",
    "IngestionReport",
    "RowIssue",
    "STAGE_EXACT",
    "STAGE_ESTIMATED",
    "STAGE_PARTIAL",
    "STAGES",
    "InterruptGuard",
    "search_content_key",
    "DeadLetterArchive",
    "FaultPlan",
    "FaultSpec",
    "NO_FAULTS",
]
