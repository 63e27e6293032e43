"""One match request and the one runner that executes it.

The paper's matcher is a function of two logs and a handful of knobs
(α, the estimation depth I, the composite threshold δ; Definition 2,
Algorithm 2).  :class:`MatchRequest` holds them resolved and validated,
whichever front end decoded them: :meth:`MatchRequest.from_args` for
``repro match``, :meth:`MatchRequest.from_json` for a daemon job.
:func:`run_match` builds the matcher, picks the route and returns the
outcome with one provenance record, for both front ends — so a job's
result equals ``repro match --store`` on the same inputs.

:meth:`MatchRequest.content_key` hashes the two input files' content
digests with the resolved knobs (α defaulted from ``labels`` and stored
as a float, numbers coerced, ``delta`` dropped from singleton requests,
which never read it).  Requests that mean the same match share one key,
whatever paths or number spellings they use.
The fault plan, a testing aid, is left out: a fault changes *how* a run
fails, never what the converged result is.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from repro.baselines.common import MatchOutcome
from repro.core.config import EMSConfig
from repro.exceptions import JobSpecError, LogFormatError, ReproError
from repro.logs.csvio import read_csv
from repro.logs.log import EventLog
from repro.logs.xes import read_xes
from repro.matchers import EMSCompositeMatcher, EMSMatcher
from repro.obs import NULL_OBSERVER, Observer
from repro.runtime import (
    DeadLetterArchive,
    DegradationPolicy,
    FaultPlan,
    IngestionReport,
    InterruptGuard,
    MatchBudget,
)
from repro.similarity.labels import QGramCosineSimilarity
from repro.store import MatchStore, file_digest, match_stored

FORMATS = ("auto", "xes", "csv")
ON_ERROR_MODES = ("raise", "skip", "repair")
DTYPES = ("float64", "float32")

#: Job spec field -> accepted JSON types.  Only the two paths are
#: required; every other field defaults as :class:`MatchRequest` does.
_JOB_FIELDS: dict[str, tuple[type, ...]] = {
    "log_first": (str,),
    "log_second": (str,),
    "format": (str,),
    "on_error": (str,),
    "composite": (bool,),
    "labels": (bool,),
    "alpha": (int, float, type(None)),
    "threshold": (int, float),
    "delta": (int, float),
    "estimate": (int, type(None)),
    "timeout": (int, float, type(None)),
    "pair_budget": (int, type(None)),
    "fault_plan": (dict, type(None)),
    "dtype": (str,),
    "degrade": (bool,),
}
_REQUIRED = ("log_first", "log_second")
#: The knobs :meth:`MatchRequest.content_key` hashes: every one that can
#: change the result (paths stand in as digests; faults never count).
_KEY_FIELDS = tuple(
    name for name in _JOB_FIELDS if name not in (*_REQUIRED, "fault_plan")
)


def load_log(
    path: str,
    fmt: str = "auto",
    on_error: str = "raise",
    report: IngestionReport | None = None,
) -> EventLog:
    """Load an event log from *path* (XES or CSV).

    Raises :class:`LogFormatError` for unrecognized or unparseable
    inputs — callers decide how to present that (the CLI maps it to exit
    code 2 in :func:`repro.cli.main`).
    """
    resolved = Path(path)
    if fmt == "auto":
        suffix = resolved.suffix.lower()
        if suffix == ".xes":
            fmt = "xes"
        elif suffix == ".csv":
            fmt = "csv"
        else:
            raise LogFormatError(
                f"cannot infer the format of {path!r}; pass --format xes|csv"
            )
    if fmt == "xes":
        return read_xes(resolved, on_error=on_error, report=report)
    if fmt == "csv":
        return read_csv(resolved, name=resolved.stem, on_error=on_error, report=report)
    raise LogFormatError(f"unknown format {fmt!r}")


class RequestError(ValueError):
    """An invalid request knob.

    ``field`` names the knob when ``reason`` does not (the errors of
    :class:`EMSConfig` and :class:`MatchBudget` name their own).
    """

    def __init__(self, reason: str, field: str = ""):
        super().__init__(f"{field} {reason}" if field else reason)
        self.reason = reason
        self.field = field

    def for_cli(self) -> ReproError:
        """The same problem phrased with the ``repro`` flag name."""
        if not self.field:
            return ReproError(self.reason)
        return ReproError(f"--{self.field.replace('_', '-')} {self.reason}")


@dataclass(frozen=True)
class MatchRequest:
    """Everything one match depends on, resolved and validated.

    Construction normalizes and checks every knob; an out-of-range value
    raises :class:`RequestError`.  The derived ``config``, ``budget``
    and ``degradation`` are built here, once, and :func:`run_match` uses
    them as they are.
    """

    log_first: str
    log_second: str
    format: str = "auto"
    on_error: str = "raise"
    composite: bool = False
    labels: bool = False
    #: Structural weight; ``None`` resolves to 0.5 with labels, else 1.0.
    alpha: float | None = None
    threshold: float = 0.0
    #: Composite merge threshold; ``None`` on singleton requests.
    delta: float | None = 0.01
    estimate: int | None = None
    timeout: float | None = None
    pair_budget: int | None = None
    faults: FaultPlan | None = None
    dtype: str = "float64"
    degrade: bool = True

    config: EMSConfig = field(init=False, repr=False, compare=False)
    budget: MatchBudget | None = field(init=False, repr=False, compare=False)
    degradation: DegradationPolicy = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        def resolve(name: str, value: Any) -> None:
            object.__setattr__(self, name, value)

        def number(value: Any) -> float | None:
            return None if value is None else float(value)

        for name, choices in (
            ("format", FORMATS), ("on_error", ON_ERROR_MODES), ("dtype", DTYPES)
        ):
            if getattr(self, name) not in choices:
                raise RequestError(
                    f"must be one of {choices}, got {getattr(self, name)!r}", name
                )
        if self.alpha is None:
            resolve("alpha", 0.5 if self.labels else 1.0)
        for name in ("alpha", "threshold", "delta", "timeout"):
            resolve(name, number(getattr(self, name)))
        if self.delta is not None and self.delta < 0.0:
            raise RequestError(f"must be non-negative, got {self.delta}", "delta")
        if not self.composite:
            resolve("delta", None)
        try:
            resolve("config", EMSConfig(
                alpha=self.alpha,
                estimation_iterations=self.estimate,
                dtype=self.dtype,
            ))
            budget = None
            if self.timeout is not None or self.pair_budget is not None:
                budget = MatchBudget(
                    deadline=self.timeout, max_pair_updates=self.pair_budget
                )
            resolve("budget", budget)
        except ValueError as error:
            raise RequestError(str(error)) from None
        resolve(
            "degradation",
            DegradationPolicy() if self.degrade else DegradationPolicy.none(),
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_args(cls, arguments: Any) -> "MatchRequest":
        """The request of a parsed ``repro match`` command line.

        Raises :class:`ReproError` (exit 2) for out-of-range knobs,
        conflicting flags and an unreadable ``--fault-plan``.
        """
        if arguments.store is not None and arguments.report:
            raise ReproError(
                "--report renders the parsed logs; it cannot be combined with "
                "the out-of-core --store path"
            )
        faults = None
        if arguments.fault_plan is not None:
            try:
                faults = FaultPlan.from_json(
                    Path(arguments.fault_plan).read_text(encoding="utf-8")
                )
            except (OSError, ValueError, KeyError, TypeError) as error:
                raise ReproError(
                    f"cannot load fault plan {arguments.fault_plan!r}: {error}"
                ) from None
        knobs = {
            spec.name: getattr(arguments, spec.name)
            for spec in fields(cls)
            if spec.init and spec.name not in ("faults", "degrade")
        }
        try:
            return cls(**knobs, faults=faults, degrade=not arguments.no_degrade)
        except RequestError as error:
            raise error.for_cli() from None

    @classmethod
    def from_json(cls, submission: Any) -> "MatchRequest":
        """The request of one job spec (a flat JSON object), or :class:`JobSpecError`.

        Unknown fields, wrong types, out-of-range values and missing
        input files are all rejected here — a typo'd knob must not
        silently select a default, and the content key needs the files.
        """
        if not isinstance(submission, dict):
            raise JobSpecError(
                f"a job spec must be a JSON object, got {type(submission).__name__}"
            )
        unknown = sorted(set(submission) - set(_JOB_FIELDS))
        if unknown:
            raise JobSpecError(
                f"unknown job spec field(s): {', '.join(unknown)}",
                field=unknown[0],
            )
        for name, types in _JOB_FIELDS.items():
            if name not in submission:
                if name in _REQUIRED:
                    raise JobSpecError(
                        f"job spec is missing required field {name!r}", field=name
                    )
                continue
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
        knobs = dict(submission)
        plan = knobs.pop("fault_plan", None)
        try:
            faults = None if plan is None else FaultPlan.from_json(json.dumps(plan))
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise JobSpecError(
                f"job spec field 'fault_plan' is not a fault plan: {error}",
                field="fault_plan",
            ) from None
        try:
            request = cls(**knobs, faults=faults)
        except RequestError as error:
            raise JobSpecError(
                f"invalid job spec: {error}", field=error.field
            ) from None
        for name in _REQUIRED:
            if not Path(getattr(request, name)).is_file():
                raise JobSpecError(
                    f"job spec field {name!r}: no such file: "
                    f"{getattr(request, name)!r}",
                    field=name,
                )
        return request

    def to_json(self) -> dict[str, Any]:
        """The job spec of this request; ``from_json`` reads it back equal.

        Singleton specs omit ``delta``.
        """
        spec = {
            name: getattr(self, name) for name in _JOB_FIELDS if name != "fault_plan"
        }
        if not self.composite:
            del spec["delta"]
        spec["fault_plan"] = (
            None if self.faults is None else json.loads(self.faults.to_json())
        )
        return spec

    def canonical(self) -> dict[str, Any]:
        """Every result-affecting knob, resolved: the key's knob half."""
        return {name: getattr(self, name) for name in _KEY_FIELDS}

    def content_key(self) -> str:
        """Content identity (hex SHA-256): file digests + canonical knobs."""
        digests = [file_digest(self.log_first), file_digest(self.log_second)]
        return hashlib.sha256(
            json.dumps(
                [digests, self.canonical()], sort_keys=True, separators=(",", ":")
            ).encode()
        ).hexdigest()


@dataclass(frozen=True)
class MatchRun:
    """What :func:`run_match` returns: the outcome and how it was reached.

    ``provenance`` holds ``match_mode`` (``store``, ``computed`` or
    ``composite``), ``log_names``, ``matrix_key`` (the match-store key,
    ``None`` off the stored route) and ``ingest_modes`` (per side;
    ``store-append`` marks a grown file).  ``logs`` are the parsed logs
    on the routes that parse them, else ``None``.
    """

    outcome: MatchOutcome
    provenance: dict[str, Any]
    matcher_name: str
    ingestion: tuple[IngestionReport, IngestionReport]
    logs: tuple[EventLog, EventLog] | None = None

    @property
    def interrupted(self) -> bool:
        """Whether an interrupt cut the run short (a resumable partial)."""
        runtime = self.outcome.runtime
        return (
            runtime is not None
            and runtime.stage == "partial"
            and runtime.reason == "interrupted"
        )

    def to_dict(self) -> dict[str, Any]:
        """The result document of ``repro match --json`` and of a job."""
        outcome = self.outcome
        return {
            "objective": outcome.objective,
            "correspondences": [
                {"left": sorted(c.left), "right": sorted(c.right)}
                for c in outcome.correspondences
            ],
            "diagnostics": dict(outcome.diagnostics),
            "runtime": outcome.runtime.to_dict() if outcome.runtime else None,
            "provenance": self.provenance,
        }


def _provenance(match_mode, log_names, ingest_modes, matrix_key=None) -> dict[str, Any]:
    return {
        "match_mode": match_mode,
        "log_names": list(log_names),
        "matrix_key": matrix_key,
        "ingest_modes": list(ingest_modes),
    }


@contextmanager
def _dead_lettered(archive: DeadLetterArchive | None, path: str):
    """Archive a whole input file that fails to parse, then re-raise.

    A :class:`LogFormatError` tagged with a ``source`` (the stored route
    ingests both sides in one call) names the failing file.
    """
    try:
        yield
    except LogFormatError as error:
        if archive is not None:
            source = getattr(error, "source", path)
            try:
                payload = Path(source).read_bytes()
            except OSError:  # unreadable: nothing to preserve
                payload = None
            if payload is not None:
                archive.put(
                    payload,
                    {"source": source, "problem": str(error), "mode": "file"},
                )
        raise


def _parse(request, reports, archive, observer) -> tuple[EventLog, EventLog]:
    logs = []
    for path, report in zip((request.log_first, request.log_second), reports):
        with observer.span("ingest.parse", source=path), _dead_lettered(archive, path):
            logs.append(load_log(path, request.format, request.on_error, report))
    observer.info(
        "loaded %s (%d traces) and %s (%d traces)",
        request.log_first, len(logs[0]), request.log_second, len(logs[1]),
    )
    return logs[0], logs[1]


def run_match(
    request: MatchRequest,
    *,
    observer: Observer | None = None,
    store: MatchStore | None = None,
    interrupt: InterruptGuard | None = None,
    archive: DeadLetterArchive | None = None,
) -> MatchRun:
    """Run *request*: the one runner of ``repro match`` and the daemon.

    The route, in order:

    * **composite** — both logs are parsed and searched by Algorithm 2,
      with the *interrupt* (entered around the search), which only this
      route uses; with a *store*, the search memoizes its evaluations
      in the store's ``evaluations`` table and resumes through it;
    * **stored singleton** — with a *store*,
      :func:`~repro.store.match_stored` serves the pair from the stored
      matrix (``store``) or runs it cold and stores it (``computed``);
    * **in-memory singleton** — both logs are parsed and matched.

    Every route gives the same answer as the in-memory one.  *archive*
    receives the rows the readers reject and any file that fails to
    parse.
    """
    observer = observer if observer is not None else NULL_OBSERVER
    paths = (request.log_first, request.log_second)
    reports = tuple(
        IngestionReport(source=path, mode=request.on_error, archive=archive)
        for path in paths
    )
    label_similarity = QGramCosineSimilarity() if request.labels else None
    logs = None
    with observer.span("match") as root_span:
        if request.composite:
            matcher = EMSCompositeMatcher(
                request.config, label_similarity,
                threshold=request.threshold, delta=request.delta,
                budget=request.budget, degradation=request.degradation,
                observer=observer, faults=request.faults, interrupt=interrupt,
                store=store,
            )
            logs = _parse(request, reports, archive, observer)
            with interrupt if interrupt is not None else nullcontext():
                outcome = matcher.match(*logs)
            provenance = _provenance(
                "composite", (log.name for log in logs), ("parsed", "parsed")
            )
        else:
            matcher = EMSMatcher(
                request.config, label_similarity, threshold=request.threshold,
                budget=request.budget, degradation=request.degradation,
                observer=observer,
            )
            if store is not None:
                with _dead_lettered(archive, request.log_first):
                    outcome, stored = match_stored(
                        *paths, request.format, request.on_error,
                        matcher=matcher, store=store, reports=reports,
                        observer=observer,
                    )
                provenance = _provenance(**stored)
            else:
                logs = _parse(request, reports, archive, observer)
                outcome = matcher.match(*logs)
                provenance = _provenance(
                    "computed", (log.name for log in logs), ("parsed", "parsed")
                )
        root_span.attributes["objective"] = outcome.objective
        root_span.attributes["correspondences"] = len(outcome.correspondences)
        observer.info(
            "matched via %s: %d correspondences, objective %.4f",
            provenance["match_mode"], len(outcome.correspondences),
            outcome.objective,
        )
    return MatchRun(outcome, provenance, matcher.name, reports, logs)
