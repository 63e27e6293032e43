"""Job specifications: validation, normalization, content identity.

A *job* asks the daemon to match one pair of serialized event logs.  Its
specification is a flat JSON object mirroring the ``repro match`` flags
the service supports; :func:`validate_spec` normalizes a submission into
the canonical dict stored in the queue (defaults filled in, unknown
fields rejected loudly — a typo'd knob must not silently select a
default), and :func:`job_content_key` derives the job's identity.

Identity is *content*-addressed, not path-addressed: the key hashes the
two input files' content digests (:func:`repro.store.logstore.file_digest`,
the same digests the match store keys on) together with every knob that
can change the result.  Re-submitting the same pair under different
paths — or the same path after a daemon restart — therefore dedups to
the existing job, which is what makes ``POST /jobs`` idempotent.  The
fault plan (a testing aid) is deliberately excluded from the key: a
fault changes *how* a run fails, never what the converged result is,
and the kill-and-restart path depends on the resumed attempt keeping
the first attempt's identity.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from repro.core.composite import CompositeMatcher
from repro.core.config import EMSConfig
from repro.exceptions import JobSpecError
from repro.runtime.budget import MatchBudget
from repro.runtime.degrade import DegradationPolicy
from repro.similarity.labels import QGramCosineSimilarity
from repro.store.logstore import file_digest

#: Job states, in lifecycle order (see ``docs/service.md``).
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_DEAD = "dead"
STATES = (STATE_QUEUED, STATE_RUNNING, STATE_DONE, STATE_FAILED, STATE_DEAD)

#: Field name -> (expected types, default).  ``...`` marks a required
#: field.  The two path fields are listed first for error messages but
#: are excluded from the content key (their *digests* stand in).
_SPEC_FIELDS: dict[str, tuple[tuple[type, ...], Any]] = {
    "log_first": ((str,), ...),
    "log_second": ((str,), ...),
    "format": ((str,), "auto"),
    "on_error": ((str,), "raise"),
    "composite": ((bool,), False),
    "labels": ((bool,), False),
    "alpha": ((int, float, type(None)), None),
    "threshold": ((int, float), 0.0),
    "delta": ((int, float), 0.01),
    "estimate": ((int, type(None)), None),
    "timeout": ((int, float, type(None)), None),
    "pair_budget": ((int, type(None)), None),
    "workers": ((int,), 0),
    "fault_plan": ((dict, type(None)), None),
}

_CHOICES = {
    "format": ("auto", "xes", "csv"),
    "on_error": ("raise", "skip", "repair"),
}


def validate_spec(submission: Any) -> dict[str, Any]:
    """The canonical spec dict of one submission, or :class:`JobSpecError`.

    Normalization fills every optional field with its default, so two
    submissions that *mean* the same job serialize — and hash — the
    same.  The input files must exist and be readable at submission
    time: the content key needs their digests, and rejecting a missing
    file here (HTTP 400 + dead letter) beats a queued job that can only
    fail later.
    """
    if not isinstance(submission, dict):
        raise JobSpecError(
            f"a job spec must be a JSON object, got {type(submission).__name__}"
        )
    unknown = sorted(set(submission) - set(_SPEC_FIELDS))
    if unknown:
        raise JobSpecError(
            f"unknown job spec field(s): {', '.join(unknown)}",
            field=unknown[0],
        )
    spec: dict[str, Any] = {}
    for name, (types, default) in _SPEC_FIELDS.items():
        if name in submission:
            value = submission[name]
            # bool is an int subclass; an int field must not accept True.
            if isinstance(value, bool) and bool not in types:
                raise JobSpecError(
                    f"job spec field {name!r} must not be a boolean", field=name
                )
            if not isinstance(value, types):
                raise JobSpecError(
                    f"job spec field {name!r} has type "
                    f"{type(value).__name__}, expected "
                    f"{'/'.join(t.__name__ for t in types)}",
                    field=name,
                )
        elif default is ...:
            raise JobSpecError(
                f"job spec is missing required field {name!r}", field=name
            )
        else:
            value = default
        spec[name] = value
    for name, choices in _CHOICES.items():
        if spec[name] not in choices:
            raise JobSpecError(
                f"job spec field {name!r} must be one of {choices}, "
                f"got {spec[name]!r}",
                field=name,
            )
    if spec["workers"] < 0:
        raise JobSpecError("job spec field 'workers' must be >= 0", field="workers")
    # Out-of-range knobs fail here, as a 400, not later in the scheduler
    # where a ValueError would be retried as a poison job.
    try:
        config, _, _, _ = build_matcher_inputs(spec)
        CompositeMatcher(config, delta=spec["delta"])
    except ValueError as error:
        raise JobSpecError(f"invalid job spec: {error}") from None
    for name in ("log_first", "log_second"):
        path = Path(spec[name])
        if not path.is_file():
            raise JobSpecError(
                f"job spec field {name!r}: no such file: {spec[name]!r}",
                field=name,
            )
    return spec


def build_matcher_inputs(spec: dict[str, Any]):
    """(config, label_similarity, budget, degradation) of one job spec.

    Must mirror ``repro.cli._match_setup`` knob for knob — the service's
    acceptance bar is a result bitwise-identical to the CLI path.
    """
    label_similarity = QGramCosineSimilarity() if spec["labels"] else None
    alpha = spec["alpha"]
    if alpha is None:
        alpha = 0.5 if spec["labels"] else 1.0
    config = EMSConfig(
        alpha=alpha,
        estimation_iterations=spec["estimate"],
    )
    budget = None
    if spec["timeout"] is not None or spec["pair_budget"] is not None:
        budget = MatchBudget(
            deadline=spec["timeout"], max_pair_updates=spec["pair_budget"]
        )
    return config, label_similarity, budget, DegradationPolicy()


def job_content_key(spec: dict[str, Any]) -> str:
    """Content identity of a validated spec (hex SHA-256).

    The file paths are replaced by their content digests, and the fault
    plan is dropped — see the module docstring for why.
    """
    canonical = {
        name: value
        for name, value in sorted(spec.items())
        if name not in ("log_first", "log_second", "fault_plan")
    }
    digests = [file_digest(spec["log_first"]), file_digest(spec["log_second"])]
    return hashlib.sha256(
        json.dumps([digests, canonical], sort_keys=True,
                   separators=(",", ":"), default=repr).encode()
    ).hexdigest()


def job_id_from_key(content_key: str) -> str:
    """The short public job id (the key's 16-hex-char prefix)."""
    return content_key[:16]
