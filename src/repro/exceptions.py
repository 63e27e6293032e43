"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError``, ``ValueError`` raised by
argument validation) surface normally.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class EventLogError(ReproError):
    """An event log is structurally invalid (empty traces, reserved names...)."""


class LogFormatError(EventLogError):
    """A serialized event log (XES/CSV) could not be parsed."""


class GraphError(ReproError):
    """A dependency-graph operation received inconsistent input."""


class MatchingError(ReproError):
    """A matching computation could not be carried out."""


class MatrixLabelMismatch(MatchingError, ValueError):
    """Two similarity matrices cover different node vocabularies.

    Raised by :meth:`repro.core.matrix.SimilarityMatrix.combine` when the
    row or column *label sets* of the operands differ — averaging such
    matrices positionally would silently mix similarities of unrelated
    node pairs.  ``axis`` names the offending dimension (``"rows"`` or
    ``"cols"``); ``only_self`` / ``only_other`` carry the labels present
    on one side but not the other, for actionable error messages.

    Also a :class:`ValueError`: mismatched operands were always a value
    problem, and callers predating the typed exception catch it as one.
    """

    def __init__(
        self,
        message: str,
        *,
        axis: str = "rows",
        only_self: tuple[str, ...] = (),
        only_other: tuple[str, ...] = (),
    ):
        super().__init__(message)
        self.axis = axis
        self.only_self = only_self
        self.only_other = only_other


class BudgetExhausted(ReproError):
    """A matching run hit its :class:`repro.runtime.MatchBudget`.

    Carries machine-readable context so the degradation ladder (and the
    CLI's exit-code mapping) can react without parsing the message:
    ``reason`` is ``"deadline"`` or ``"pair-updates"``, ``elapsed`` the
    wall-clock seconds spent, and ``pair_updates`` the formula-(1)
    evaluations charged so far.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "deadline",
        elapsed: float = 0.0,
        pair_updates: int = 0,
    ):
        super().__init__(message)
        self.reason = reason
        self.elapsed = elapsed
        self.pair_updates = pair_updates


class SearchBudgetExceeded(MatchingError):
    """A matcher exceeded its configured search budget.

    Raised by the OPQ baseline when the number of events exceeds its hard
    cap, mirroring the paper's observation that OPQ "cannot even finish the
    matching of events more than 30" (Section 5.2, Figure 8).
    """


class StoreError(ReproError):
    """The persistent log store could not complete a request.

    Raised only for caller errors (an invalid path, an unwritable
    directory at construction time); *corruption* of an existing store
    never raises — it degrades to a logged cold path (see
    :mod:`repro.store.logstore`).
    """


class SynthesisError(ReproError):
    """A synthetic workload could not be generated as requested."""


class ServiceError(ReproError):
    """The matching service could not complete a request.

    Raised for daemon-level problems (an unusable store directory, a
    port that cannot be bound); per-job failures never raise out of the
    scheduler — they move the job to ``failed``/``dead`` and archive it.
    """


class JobSpecError(ServiceError):
    """A submitted job specification is invalid.

    Carries the machine-readable ``problem`` so the HTTP layer can
    answer 400 with a useful body and the dead-letter context records
    what exactly was wrong with the submission.
    """

    def __init__(self, message: str, *, field: str = ""):
        super().__init__(message)
        self.field = field
