"""Command line interface: match two serialized event logs.

Usage::

    python -m repro match LOG1 LOG2 [--format xes|csv] [--composite]
                                    [--alpha A] [--labels] [--threshold T]
                                    [--estimate I] [--json] [--dtype D]
                                    [--timeout S] [--pair-budget N]
                                    [--no-degrade] [--on-error MODE]
                                    [--dead-letter-dir DIR]
                                    [--store PATH]
                                    [--trace-out PATH] [--metrics-out PATH]
                                    [--manifest-out PATH] [--log-level LEVEL]
    python -m repro stats LOG [--format xes|csv] [--on-error MODE]
                              [--store PATH] [--from-store] [--top N]
                              [--json] [--metrics-out PATH]
                              [--log-level LEVEL]
    python -m repro serve --store-dir DIR [--host H] [--port N]
                          [--workers N] [--watch-dir DIR]
                          [--max-attempts N] [--poll-interval S]
                          [--log-level LEVEL]

Reads the two logs (XES or CSV, auto-detected from the extension by
default), runs EMS matching, and prints the found correspondences with
their similarity — or a JSON document with ``--json`` for scripting.

Failure behaviour (see ``docs/robustness.md``):

* exit 0 — a result was produced, possibly degraded within the budget;
* exit 2 — the inputs could not be read (bad format, missing file, ...);
* exit 3 — the budget was exhausted and degradation was disabled.

``--timeout``/``--pair-budget`` bound the matching work;
``--on-error skip|repair`` makes ingestion fault-tolerant, with the
dropped/repaired rows accounted in the ``--json`` output and the
Markdown report, and ``--dead-letter-dir`` preserves every rejected
record (original bytes + error context, content-addressed) for offline
triage and idempotent re-submission.

Durable execution (composite mode): with ``--store PATH`` the greedy
search persists every candidate evaluation and discovery in the store's
``evaluations`` table (keyed by a content hash of the inputs,
configuration and accepted-merge history).  SIGINT/SIGTERM end the
search at the next round boundary and return the best-so-far result as
a ``partial`` stage instead of dying mid-round; re-running the same
command over the same store resumes it, replaying every finished
evaluation, and ends bit-identical to an uninterrupted run.  A
pair-budgeted search does not read stored evaluations and restarts
cold.  A candidate evaluation that raises fails the whole
match; no candidate is ever skipped.  Every match runs in one process.

Observability (see ``docs/observability.md``): ``--trace-out`` writes a
Chrome-trace JSON of the run's spans, ``--metrics-out`` a Prometheus
text exposition, ``--manifest-out`` a run-manifest JSON (config +
environment + per-stage timings), and ``--log-level`` enables library
logging to stderr.

Scale (see ``docs/scale.md``): ``--store PATH`` opens a persistent
SQLite match store; a singleton match through it is statistics-backed
and never materializes the logs: each log is ingested out of core by
the streamed route (CSV rows case-hash partitioned to disk, XES read
one trace at a time), and each log's counts and each finished
similarity matrix are memoized as digest-verified records.  A repeated
log pair skips parse, count *and* the EMS fixpoint
(``"match_mode": "store"`` under ``"provenance"`` in the JSON output),
and a pair with an appended-to side parses only the new tail
(``"ingest_modes"`` says ``"store-append"``) before a cold fixpoint
(``"computed"``).  ``--store`` is incompatible with ``--report``.
Results are bit-identical to the in-memory path.
``stats`` runs the same streamed ingestion without matching and prints
the log's Definition-1 statistics; ``stats --from-store`` answers from
the store's counts alone, without reading the file.

Serving (see ``docs/service.md``): ``serve`` runs the long-lived
matching daemon — a persistent job queue with content-hash dedup, a
thread scheduler whose re-queued jobs resume through the match store,
a watch-folder ingester, and a JSON/REST API with Prometheus
``/metrics``.  Both front ends run one
:class:`repro.request.MatchRequest` through
:func:`repro.request.run_match`, so a job's result (``provenance``
included) equals ``repro match --store --json`` on the same inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.exceptions import BudgetExhausted, ReproError
from repro.obs import (
    NULL_OBSERVER,
    MetricsRegistry,
    Observer,
    RunManifest,
    Tracer,
    configure_logging,
)
from repro.request import (  # load_log: re-exported as repro.cli.load_log
    DTYPES,
    FORMATS,
    ON_ERROR_MODES,
    MatchRequest,
    MatchRun,
    load_log,  # noqa: F401
)
from repro.request import run_match as run_request
from repro.runtime import (
    DeadLetterArchive,
    IngestionReport,
    InterruptGuard,
)
from repro.store import (
    IngestResult,
    MatchStore,
    ingest_statistics,
    stored_statistics,
)

#: Exit code for unreadable/invalid inputs.
EXIT_INPUT_ERROR = 2
#: Exit code for budget exhaustion with the degradation ladder disabled.
EXIT_BUDGET_EXHAUSTED = 3

_CHECKPOINTS_RETIRED = (
    "composite checkpoints were removed; a composite search resumes by "
    "re-running it with the same --store PATH"
)
#: Flags of removed features, each answered (exit 2) with a pointer to
#: what replaced it instead of a bare argparse error.
_RETIRED_FLAGS = {
    "--checkpoint-dir": _CHECKPOINTS_RETIRED,
    "--checkpoint-every": _CHECKPOINTS_RETIRED,
    "--resume": _CHECKPOINTS_RETIRED,
    "--eval-cache-dir": (
        "the evaluation cache directory was removed; a composite search "
        "memoizes and resumes through the match store: pass --store PATH"
    ),
    "--shard-traces": (
        "the sharded ingest route was removed; match out of core with "
        "--store PATH (its ingest always streams), and stats streams "
        "on its own"
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Match events across two heterogeneous event logs (EMS, SIGMOD 2014).",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    match = commands.add_parser("match", help="match two event logs")
    match.add_argument("log_first", help="first event log (.xes or .csv)")
    match.add_argument("log_second", help="second event log (.xes or .csv)")
    match.add_argument("--format", choices=FORMATS, default="auto")
    match.add_argument(
        "--composite", action="store_true",
        help="enable m:n composite event matching (Algorithm 2)",
    )
    match.add_argument(
        "--labels", action="store_true",
        help="blend in q-gram cosine label similarity (alpha = 0.5 unless set)",
    )
    match.add_argument("--alpha", type=float, default=None,
                       help="structural weight in [0, 1]")
    match.add_argument("--threshold", type=float, default=0.0,
                       help="minimum similarity for a reported pair")
    match.add_argument("--estimate", type=int, default=None, metavar="I",
                       help="use the EMS+es estimation with I exact iterations")
    match.add_argument("--delta", type=float, default=0.01,
                       help="composite-merge improvement threshold")
    match.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; on exhaustion the result degrades "
             "(exact -> estimated -> partial) instead of failing",
    )
    match.add_argument(
        "--pair-budget", type=int, default=None, metavar="N",
        help="cap on formula-(1) pair updates across the whole job",
    )
    match.add_argument(
        "--no-degrade", action="store_true",
        help="disable the degradation ladder: budget exhaustion exits 3",
    )
    match.add_argument(
        "--on-error", choices=ON_ERROR_MODES, default="raise",
        help="ingestion fault mode: abort on the first bad row (raise), "
             "drop bad rows (skip), or fix what is fixable (repair)",
    )
    match.add_argument(
        "--dead-letter-dir", metavar="DIR", default=None,
        help="archive every record rejected by --on-error skip|repair "
             "(and whole files that fail to parse) under DIR, content-"
             "addressed with a JSON error context",
    )
    match.add_argument(
        "--fault-plan", metavar="PATH", default=None,
        help="inject deterministic faults from a JSON plan (testing aid; "
             "see docs/robustness.md)",
    )
    match.add_argument(
        "--dtype", choices=DTYPES, default="float64",
        help="floating-point width of the similarity computation; float32 "
             "halves buffer memory at ~1e-5 accuracy cost",
    )
    match.add_argument(
        "--store", metavar="PATH", default=None,
        help="persistent SQLite match store: ingest out of core and "
             "memoize content-addressed counts and similarity matrices so "
             "repeated or appended-to logs skip parsing and counting "
             "(digest-verified; corruption degrades to a cold parse); "
             "with --composite, memoize the search's candidate "
             "evaluations, so a repeated or interrupted search replays "
             "them",
    )
    match.add_argument("--json", action="store_true", help="machine-readable output")
    match.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write a Markdown matching report to PATH",
    )
    match.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a Chrome-trace JSON of the run (open in chrome://tracing "
             "or Perfetto)",
    )
    match.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the run's metrics in Prometheus text exposition format",
    )
    match.add_argument(
        "--manifest-out", metavar="PATH", default=None,
        help="write a run manifest JSON (config, environment, per-stage "
             "timings, stats)",
    )
    match.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error", "critical"),
        default=None,
        help="enable library logging to stderr at this level",
    )

    stats = commands.add_parser(
        "stats", help="compute a log's Definition-1 statistics (no matching)"
    )
    stats.add_argument("log", help="event log (.xes or .csv)")
    stats.add_argument("--format", choices=FORMATS, default="auto")
    stats.add_argument(
        "--on-error", choices=ON_ERROR_MODES, default="raise",
        help="ingestion fault mode (same semantics as match)",
    )
    stats.add_argument(
        "--store", metavar="PATH", default=None,
        help="persistent SQLite log store (see match --store)",
    )
    stats.add_argument(
        "--from-store", action="store_true",
        help="answer from the store's counts of the last ingest of this "
             "path, without reading the log file (requires --store and a "
             "prior ingest of the same path)",
    )
    stats.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="activities/pairs shown in the text output (default: 10)",
    )
    stats.add_argument("--json", action="store_true", help="machine-readable output")
    stats.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the run's metrics in Prometheus text exposition format",
    )
    stats.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error", "critical"),
        default=None,
        help="enable library logging to stderr at this level",
    )
    stats.set_defaults(trace_out=None, manifest_out=None)

    serve = commands.add_parser(
        "serve",
        help="run the long-lived matching daemon (HTTP + watch folder)",
    )
    serve.add_argument(
        "--store-dir", required=True, metavar="DIR",
        help="the daemon's durable root: job queue, match store, "
             "dead letters and the service.json ready file",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="address to bind the HTTP API to (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=0, metavar="N",
        help="TCP port for the HTTP API; 0 (the default) picks an "
             "ephemeral port, recorded in DIR/service.json",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="scheduler threads executing jobs concurrently (default: 1)",
    )
    serve.add_argument(
        "--watch-dir", metavar="DIR", default=None,
        help="also ingest job-spec JSON files dropped into DIR",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="attempts before a transiently failing job is declared "
             "dead and dead-lettered (default: 3)",
    )
    serve.add_argument(
        "--poll-interval", type=float, default=0.1, metavar="SECONDS",
        help="idle scheduler/watcher polling interval (default: 0.1)",
    )
    serve.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error", "critical"),
        default=None,
        help="enable library logging to stderr at this level",
    )
    return parser


def _build_observer(arguments: argparse.Namespace) -> Observer:
    """The run's observer, shaped by the observability flags.

    A tracer is attached when a trace or manifest is requested, a metrics
    registry when metrics or a manifest are; with none of the flags the
    null observer keeps the run on the uninstrumented path.
    """
    if arguments.log_level is not None:
        configure_logging(arguments.log_level)
    wants_trace = arguments.trace_out or arguments.manifest_out
    wants_metrics = arguments.metrics_out or arguments.manifest_out
    if not wants_trace and not wants_metrics:
        return NULL_OBSERVER
    return Observer(
        tracer=Tracer() if wants_trace else None,
        metrics=MetricsRegistry() if wants_metrics else None,
    )


def run_match(arguments: argparse.Namespace) -> int:
    """The ``match`` subcommand: decode the request, open its resources, run.

    Knob decoding, route choice and result shaping live in
    :mod:`repro.request`, shared with the daemon; this function owns only
    what is CLI-specific: the dead-letter and store resources named by
    flags, and the output files.
    """
    request = MatchRequest.from_args(arguments)
    observer = _build_observer(arguments)
    archive = store = None
    if arguments.dead_letter_dir:
        archive = DeadLetterArchive(arguments.dead_letter_dir, observer=observer)
    if arguments.store:
        store = MatchStore(arguments.store, observer=observer)
    try:
        run = run_request(
            request, observer=observer, store=store,
            interrupt=InterruptGuard(), archive=archive,
        )
    finally:
        if store is not None:
            store.close()
    _write_observability_outputs(arguments, observer, request, run.outcome)
    return _render_match_output(arguments, run)


def _stats_from_store(
    arguments: argparse.Namespace, store: MatchStore
) -> IngestResult:
    """``stats --from-store``: the stored counts alone, the file untouched."""
    result = stored_statistics(
        arguments.log, arguments.format, arguments.on_error, store
    )
    if result is None:
        raise ReproError(
            f"no stored counts for {arguments.log!r} in "
            f"{arguments.store!r}; ingest it first (stats --store without "
            f"--from-store)"
        )
    return result


def run_stats(arguments: argparse.Namespace) -> int:
    """The ``stats`` subcommand: ingest one log, print its statistics."""
    observer = _build_observer(arguments)
    if arguments.top < 0:
        raise ReproError(f"--top must be >= 0, got {arguments.top}")
    store = (
        MatchStore(arguments.store, observer=observer) if arguments.store else None
    )
    report = IngestionReport(source=arguments.log, mode=arguments.on_error)
    if arguments.from_store:
        if store is None:
            raise ReproError("--from-store requires --store PATH")
        try:
            with observer.span("stats", source=arguments.log):
                result = _stats_from_store(arguments, store)
        finally:
            store.close()
    else:
        with observer.span("stats", source=arguments.log):
            result = ingest_statistics(
                arguments.log, arguments.format, arguments.on_error, report,
                store=store, observer=observer,
            )
        if store is not None:
            store.close()
    if arguments.metrics_out:
        Path(arguments.metrics_out).write_text(
            observer.metrics.to_prometheus_text()
        )
    statistics = result.statistics
    if arguments.json:
        payload = {
            "log": result.log_name,
            "mode": result.mode,
            "trace_count": statistics.trace_count,
            "activities": len(statistics.activity_frequencies),
            "pairs": len(statistics.pair_frequencies),
            "activity_frequencies": dict(
                sorted(statistics.activity_frequencies.items())
            ),
            "pair_frequencies": {
                f"{source}->{target}": freq
                for (source, target), freq in sorted(
                    statistics.pair_frequencies.items()
                )
            },
            "ingestion": report.to_dict(),
        }
        json.dump(payload, sys.stdout, indent=2, ensure_ascii=False)
        print()
        return 0
    print(
        f"{result.log_name}: {statistics.trace_count} traces, "
        f"{len(statistics.activity_frequencies)} activities, "
        f"{len(statistics.pair_frequencies)} dependency pairs "
        f"[{result.mode}]"
    )
    ranked = sorted(
        statistics.activity_frequencies.items(), key=lambda item: (-item[1], item[0])
    )
    for activity, freq in ranked[: arguments.top]:
        print(f"  {activity}: {freq:.3f}")
    if len(ranked) > arguments.top:
        print(f"  ... and {len(ranked) - arguments.top} more")
    if not report.clean or report.fallback_cases:
        print(f"  note: {report.describe()}", file=sys.stderr)
    return 0


def run_serve(arguments: argparse.Namespace) -> int:
    """The ``serve`` subcommand: run the matching daemon until a signal."""
    from repro.service import MatchingService

    if arguments.log_level is not None:
        configure_logging(arguments.log_level)
    if arguments.workers < 1:
        raise ReproError(f"--workers must be >= 1, got {arguments.workers}")
    if arguments.max_attempts < 1:
        raise ReproError(
            f"--max-attempts must be >= 1, got {arguments.max_attempts}"
        )
    service = MatchingService(
        arguments.store_dir,
        host=arguments.host,
        port=arguments.port,
        workers=arguments.workers,
        watch_dir=arguments.watch_dir,
        max_attempts=arguments.max_attempts,
        poll_interval=arguments.poll_interval,
    )
    print(
        f"repro service listening on {service.host}:{service.port} "
        f"(store: {arguments.store_dir})",
        flush=True,
    )
    service.run_until_signal()
    return 0


def _write_observability_outputs(
    arguments: argparse.Namespace,
    observer: Observer,
    request: MatchRequest,
    outcome,
) -> None:
    """Write the trace / metrics / manifest files requested by flags."""
    if arguments.trace_out:
        Path(arguments.trace_out).write_text(
            json.dumps(observer.tracer.to_chrome_trace(), indent=2)
        )
    if arguments.metrics_out:
        Path(arguments.metrics_out).write_text(observer.metrics.to_prometheus_text())
    if arguments.manifest_out:
        runtime = outcome.runtime.to_dict() if outcome.runtime else {}
        manifest = RunManifest.from_observer(
            observer,
            config={**dataclasses.asdict(request.config), **request.canonical()},
            stats={
                "objective": outcome.objective,
                "correspondences": len(outcome.correspondences),
                "diagnostics": dict(outcome.diagnostics),
                "runtime": runtime,
            },
        )
        manifest.write(arguments.manifest_out)

def _render_match_output(arguments: argparse.Namespace, run: MatchRun) -> int:
    outcome = run.outcome
    name_first, name_second = run.provenance["log_names"]
    if arguments.report:
        from repro.reporting import render_match_report

        report = render_match_report(
            *run.logs, outcome, run.matcher_name, ingestion=run.ingestion
        )
        Path(arguments.report).write_text(report, encoding="utf-8")

    if arguments.json:
        payload = {
            "log_first": name_first,
            "log_second": name_second,
            "matcher": run.matcher_name,
            **run.to_dict(),
            "ingestion": {
                "first": run.ingestion[0].to_dict(),
                "second": run.ingestion[1].to_dict(),
            },
        }
        json.dump(payload, sys.stdout, indent=2, ensure_ascii=False)
        print()
        return 0

    print(f"{run.matcher_name}: {name_first} <-> {name_second} "
          f"(average similarity {outcome.objective:.3f})")
    if run.provenance["match_mode"] == "store":
        print(f"  [match store: {run.provenance['match_mode']}]")
    for correspondence in sorted(outcome.correspondences, key=lambda c: min(c.left)):
        marker = "  [m:n]" if correspondence.is_composite() else ""
        print(f"  {' + '.join(sorted(correspondence.left))} <-> "
              f"{' + '.join(sorted(correspondence.right))}{marker}")
    if not outcome.correspondences:
        print("  (no correspondences above the threshold)")
    if outcome.runtime is not None and outcome.runtime.degraded:
        print(f"  note: {outcome.runtime.describe()}", file=sys.stderr)
    for report in run.ingestion:
        if not report.clean or report.fallback_cases:
            print(f"  note: {report.describe()}", file=sys.stderr)
    return 0

def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    arguments, unknown = parser.parse_known_args(argv)
    retired = [arg for arg in unknown if arg.partition("=")[0] in _RETIRED_FLAGS]
    if retired:
        by_pointer: dict[str, list[str]] = {}
        for arg in retired:
            by_pointer.setdefault(_RETIRED_FLAGS[arg.partition("=")[0]], []).append(arg)
        for pointer, args in by_pointer.items():
            print(f"error: {' '.join(args)}: {pointer}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        if arguments.command == "match":
            return run_match(arguments)
        if arguments.command == "stats":
            return run_stats(arguments)
        if arguments.command == "serve":
            return run_serve(arguments)
        raise SystemExit(f"unknown command {arguments.command!r}")
    except BudgetExhausted as error:
        print(f"error: {error} (degradation disabled)", file=sys.stderr)
        return EXIT_BUDGET_EXHAUSTED
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT_ERROR
