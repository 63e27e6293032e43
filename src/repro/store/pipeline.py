"""Ingestion orchestration: store lookup → append → streamed.

:func:`ingest_statistics` is the out-of-core front door.  For one input
file it produces the exact :class:`~repro.logs.stats.LogStatistics` the
batch path (``read_csv``/``read_xes`` + ``compute_statistics``) would,
choosing the cheapest sound route:

1. **store hit** — the file's content digest matches a persisted counts
   row: no parsing, no counting;
2. **append fast path** (CSV, with a store) — the file grew but its old
   prefix is byte-identical to what was ingested before: only the tail
   is parsed, and its counts are merged into the stored ones.  Sound
   only when the tail's cases are disjoint from the stored case-digest
   set — otherwise a case's rows would be split across two parses — so
   any overlap falls back to a cold full parse;
3. **streamed** — the trace stream of :func:`~repro.store.stream.stream_traces`
   (CSV case-hash partitioned to disk, XES one trace at a time) feeds
   one accumulator directly; never materializes an
   :class:`~repro.logs.log.EventLog`.

Every route ends in the same integer counts, so the emitted statistics
(and any graph built from them) are bit-identical across routes — the
property the differential and Hypothesis suites pin.

The result records which route ran (``mode``) so callers — the CLI, the
benchmarks — can assert they exercised the path they meant to.
"""

from __future__ import annotations

import io
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.exceptions import LogFormatError
from repro.graph.dependency import DependencyGraph
from repro.logs.csvio import _read_rows
from repro.logs.stats import LogStatistics
from repro.logs.streaming import OnlineStatistics
from repro.logs.xes import iter_xes_traces
from repro.obs import NULL_OBSERVER, Observer, get_logger
from repro.runtime.report import IngestionReport
from repro.store.logstore import (
    LogStore,
    case_digest,
    counts_content_key,
    file_digest,
    ingest_key,
)
from repro.store.matchstore import (
    MatchStore,
    matrix_content_key,
    matrix_record,
    restore_result,
)
from repro.store.stream import resolve_format, stream_traces

if TYPE_CHECKING:
    from repro.baselines.common import MatchOutcome
    from repro.matchers import EMSMatcher

_logger = get_logger(__name__)


@dataclass(frozen=True, slots=True)
class IngestResult:
    """What one ingestion produced and how.

    ``mode`` is ``"store"`` (counts served entirely from the store),
    ``"store-append"`` (stored prefix counts + freshly parsed tail) or
    ``"streamed"`` (single-pass accumulation); ``counts_key`` the store
    key used, when a store was attached.
    """

    statistics: LogStatistics
    log_name: str
    mode: str
    counts_key: str | None = None


class _NameSink:
    __slots__ = ("value",)

    def __init__(self, default: str):
        self.value = default

    def __call__(self, value: str) -> None:
        self.value = value


def _counts_record(
    stats: OnlineStatistics, digests: frozenset[bytes], log_name: str
) -> dict[str, Any]:
    return {
        "trace_count": stats.trace_count,
        "activity_counts": dict(stats.activity_counts),
        "pair_counts": dict(stats.pair_counts),
        "case_digests": digests,
        "log_name": log_name,
    }


def _seed_from_record(record: dict[str, Any]) -> OnlineStatistics:
    stats = OnlineStatistics()
    stats.seed_counts(
        record["trace_count"], record["activity_counts"], record["pair_counts"]
    )
    return stats


def _stored_result(record: dict[str, Any], counts_key: str) -> IngestResult:
    """The ingest a digest-verified counts record answers on its own."""
    return IngestResult(
        statistics=_seed_from_record(record).snapshot(),
        log_name=record["log_name"],
        mode="store",
        counts_key=counts_key,
    )


def _ingest_record(
    byte_count: int, prefix_digest: str, header: str, counts_key: str
) -> dict[str, Any]:
    """The append bookkeeping of one ingested file (see ``_try_append``)."""
    return {
        "byte_count": byte_count,
        "prefix_digest": prefix_digest,
        "header": header,
        "counts_key": counts_key,
    }


def _digesting(
    traces: Iterator[tuple[str | None, tuple[str, ...]]],
    sink: set[bytes],
) -> Iterator[tuple[str | None, tuple[str, ...]]]:
    for case_id, activities in traces:
        sink.add(case_digest(case_id))
        yield case_id, activities


def _xes_append_offset(path: str | os.PathLike[str]) -> int | None:
    """Byte offset of the final ``</log`` closing tag, or ``None``.

    An XES file "grows" by rewriting its closing tag further down — the
    stable prefix ends where ``</log>`` began.  Only the unprefixed
    closing tag is recognized (namespace-prefixed documents get no
    bookkeeping and simply never take the fast path).
    """
    size = os.path.getsize(path)
    window = min(size, 1 << 16)
    with open(path, "rb") as handle:
        handle.seek(size - window)
        tail = handle.read(window)
    found = tail.rfind(b"</log")
    if found < 0:
        return None
    return size - window + found


def _parse_xes_tail(
    tail_bytes: bytes, on_error: str, report: IngestionReport
) -> list[tuple[str | None, tuple[str, ...]]] | None:
    """Parse the appended region of a grown XES file, or ``None``.

    The tail (everything from the old ``</log>`` offset on: the new
    traces, the relocated closing tag, any trailing whitespace) is
    wrapped in a synthetic ``<log>`` root and streamed through the
    ordinary reader.  A tail the wrapper cannot parse returns ``None`` —
    the cold path re-parses the whole file and reports any genuine
    defect with full context.
    """
    try:
        return [
            (trace.case_id, trace.activities)
            for trace in iter_xes_traces(
                io.BytesIO(b"<log>" + tail_bytes), on_error, report
            )
        ]
    except LogFormatError:
        return None


def _ends_in_newline(path: str | os.PathLike[str]) -> bool:
    with open(path, "rb") as handle:
        handle.seek(-1, os.SEEK_END)
        return handle.read(1) == b"\n"


def _csv_header(path: str | os.PathLike[str]) -> str | None:
    """The raw first line (terminator included), or ``None`` when the
    file does not end in a newline — an append could then continue the
    final row mid-field, so the append bookkeeping is skipped."""
    with open(path, "rb") as handle:
        header = handle.readline()
        if not header.endswith(b"\n"):
            return None
        handle.seek(-1, os.SEEK_END)
        if handle.read(1) != b"\n":
            return None
    try:
        return header.decode("utf-8")
    except UnicodeDecodeError:
        return None


def ingest_statistics(
    source: str | os.PathLike[str],
    fmt: str = "auto",
    on_error: str = "raise",
    report: IngestionReport | None = None,
    *,
    store: LogStore | None = None,
    observer: Observer | None = None,
) -> IngestResult:
    """Statistics of the log at *source*, by the cheapest sound route.

    See the module docstring for route selection.  Note that a
    store-served result skips parsing entirely, so *report* then
    reflects only what was actually parsed (nothing on a full hit, the
    tail on an append).
    """
    observer = observer if observer is not None else NULL_OBSERVER
    fmt = resolve_format(source, fmt)
    if report is None:
        report = IngestionReport(mode=on_error)
    if not report.source:
        report.source = os.fspath(source)

    counts_key: str | None = None
    if store is not None:
        content = file_digest(source)
        counts_key = counts_content_key(content, fmt, on_error)
        record = store.get_counts(counts_key)
        if record is not None:
            return _stored_result(record, counts_key)
        appended = None
        if fmt in ("csv", "xes"):
            appended = _try_append(
                source, fmt, on_error, report, store, counts_key, content, observer
            )
        if appended is not None:
            return appended

    digests: set[bytes] = set()
    name_sink = _NameSink(Path(source).stem)
    with tempfile.TemporaryDirectory(prefix="repro-ingest-") as scratch:
        traces = stream_traces(
            source, fmt, on_error, report,
            spill_dir=Path(scratch) / "partitions",
            name_sink=name_sink,
        )
        if store is not None:
            traces = _digesting(traces, digests)
        stats = OnlineStatistics()
        with observer.span("ingest.stream", source=os.fspath(source)):
            for _, activities in traces:
                stats.add_sequence(activities)

    if store is not None and counts_key is not None:
        store.put_counts(
            counts_key, _counts_record(stats, frozenset(digests), name_sink.value)
        )
        key = ingest_key(source, fmt, on_error)
        if fmt == "csv":
            header = _csv_header(source)
            if header is not None:
                store.put_ingest(key, _ingest_record(
                    os.path.getsize(source), content, header, counts_key
                ))
        elif fmt == "xes":
            offset = _xes_append_offset(source)
            if offset is not None and offset > 0:
                store.put_ingest(key, _ingest_record(
                    offset, file_digest(source, limit=offset), "", counts_key
                ))
    return IngestResult(
        statistics=stats.snapshot(),
        log_name=name_sink.value,
        mode="streamed",
        counts_key=counts_key,
    )


def stored_statistics(
    source: str | os.PathLike[str],
    fmt: str,
    on_error: str,
    store: LogStore,
) -> IngestResult | None:
    """The stored counts of the last ingest of *source*, or ``None``.

    The path is resolved through its append-bookkeeping record, which is
    keyed by path rather than content, so the file is never read — it
    need not even exist any more.  Both records are digest-verified; a
    damaged one is a miss.
    """
    key = ingest_key(source, resolve_format(source, fmt), on_error)
    prior = store.get_ingest(key)
    if prior is None:
        return None
    record = store.get_counts(prior["counts_key"])
    if record is None:
        return None
    return _stored_result(record, prior["counts_key"])


def _try_append(
    source: str | os.PathLike[str],
    fmt: str,
    on_error: str,
    report: IngestionReport,
    store: LogStore,
    counts_key: str,
    content: str,
    observer: Observer,
) -> IngestResult | None:
    """The append fast path (CSV and XES), or ``None`` when inapplicable.

    Every check errs toward the cold path: a shrunk or rewritten
    prefix, a prior row whose counts were evicted, a tail that cannot be
    parsed in isolation, or tail cases overlapping the stored case set
    all return ``None`` — the caller then parses everything from scratch.

    For CSV the stable prefix is the whole previously ingested file; for
    XES it ends at the old ``</log>`` offset (appending to XES rewrites
    the closing tag further down), and the tail is parsed by wrapping it
    in a synthetic ``<log>`` root.
    """
    key = ingest_key(source, fmt, on_error)
    prior = store.get_ingest(key)
    if prior is None:
        return None
    size = os.path.getsize(source)
    if fmt == "csv":
        if size <= prior["byte_count"]:
            return None
        new_byte_count = size
    else:
        offset = _xes_append_offset(source)
        if offset is None or offset < prior["byte_count"]:
            return None
        new_byte_count = offset
    if file_digest(source, limit=prior["byte_count"]) != prior["prefix_digest"]:
        return None
    record = store.get_counts(prior["counts_key"])
    if record is None:
        return None
    with open(source, "rb") as handle:
        handle.seek(prior["byte_count"])
        tail_bytes = handle.read()

    with observer.span("ingest.append", source=os.fspath(source)):
        if fmt == "csv":
            try:
                tail_text = tail_bytes.decode("utf-8")
            except UnicodeDecodeError:
                return None
            tail_log = _read_rows(
                io.StringIO(prior["header"] + tail_text),
                Path(source).stem, on_error, report,
            )
            tail_traces = [
                (trace.case_id, trace.activities) for trace in tail_log
            ]
        else:
            parsed = _parse_xes_tail(tail_bytes, on_error, report)
            if parsed is None:
                return None
            tail_traces = parsed
        stored_digests: frozenset[bytes] = record["case_digests"]
        tail_digests = {case_digest(case_id) for case_id, _ in tail_traces}
        if tail_digests & stored_digests:
            _logger.info(
                "append fast path for %s declined: tail cases overlap the "
                "stored prefix; re-parsing in full", os.fspath(source),
            )
            return None
        tail_stats = OnlineStatistics()
        for _, activities in tail_traces:
            tail_stats.add_sequence(activities)
        total = _seed_from_record(record)
        tail_stats.merge_into(total)

    store.put_counts(
        counts_key,
        _counts_record(
            total, stored_digests | tail_digests, record["log_name"]
        ),
    )
    # Refresh the bookkeeping for the *next* append — unless the grown
    # CSV no longer ends in a newline (a future append could then
    # continue the torn final row mid-field, and the prefix digest would
    # not catch it; the stale row stays and the case-overlap gate forces
    # the next ingest cold).
    if fmt == "xes":
        store.put_ingest(key, _ingest_record(
            new_byte_count, file_digest(source, limit=new_byte_count), "",
            counts_key,
        ))
    elif _ends_in_newline(source):
        store.put_ingest(key, _ingest_record(
            new_byte_count, content, prior["header"], counts_key
        ))
    return IngestResult(
        statistics=total.snapshot(),
        log_name=record["log_name"],
        mode="store-append",
        counts_key=counts_key,
    )


def ingest_graph(
    source: str | os.PathLike[str],
    fmt: str = "auto",
    on_error: str = "raise",
    report: IngestionReport | None = None,
    *,
    min_frequency: float = 0.0,
    store: LogStore | None = None,
    observer: Observer | None = None,
) -> tuple[DependencyGraph, IngestResult]:
    """The dependency graph of the log at *source*, store-accelerated.

    Statistics come from :func:`ingest_statistics` (a store hit skips
    parse and count); the graph is always built from them.
    """
    observer = observer if observer is not None else NULL_OBSERVER
    result = ingest_statistics(
        source, fmt, on_error, report, store=store, observer=observer,
    )
    with observer.span("graph.build", source=os.fspath(source)):
        graph = DependencyGraph.from_statistics(
            result.statistics, name=result.log_name, min_frequency=min_frequency
        )
    return graph, result


# ----------------------------------------------------------------------
# Warm end-to-end matching
# ----------------------------------------------------------------------
def match_stored(
    source_first: str | os.PathLike[str],
    source_second: str | os.PathLike[str],
    fmt: str = "auto",
    on_error: str = "raise",
    *,
    matcher: "EMSMatcher",
    store: MatchStore,
    reports: tuple[IngestionReport | None, IngestionReport | None] = (None, None),
    label_key: str = "opaque",
    observer: Observer | None = None,
) -> tuple["MatchOutcome", dict[str, Any]]:
    """Match two log files through the match store, warmest route first.

    Route selection, both steps bit-identical to a cold in-memory match:

    1. **full hit** — both files' content digests and the matcher's
       configuration key to a stored similarity matrix: the restored
       matrix goes straight to assignment; no parse, no graphs, no
       fixpoint (``match_mode="store"``);
    2. **computed** — each side's counts come from the cheapest sound
       ingest route (a grown file takes the ``store-append`` fast path),
       then a cold fixpoint runs; the finished matrix is persisted for
       next time when it is exact, converged and unbudgeted
       (``match_mode="computed"``).

    Budgeted matchers bypass the matrix store entirely, as a budgeted
    composite search bypasses stored evaluations (budget accounting must
    reflect real work), but still use the counts store underneath.

    Returns ``(outcome, provenance)`` — provenance carries
    ``match_mode``, the matrix key, per-side ingest modes and log names.
    """
    observer = observer if observer is not None else NULL_OBSERVER
    config = matcher.config
    min_frequency = matcher.min_edge_frequency
    usable = matcher.budget is None

    fmt_first = resolve_format(source_first, fmt)
    fmt_second = resolve_format(source_second, fmt)
    ck_first = counts_content_key(file_digest(source_first), fmt_first, on_error)
    ck_second = counts_content_key(file_digest(source_second), fmt_second, on_error)
    mkey = matrix_content_key(ck_first, ck_second, min_frequency, config, label_key)

    if usable:
        with observer.span("match.store.lookup", key=mkey[:12]):
            record = store.get_matrix(mkey)
        if record is not None:
            outcome = matcher.outcome_from_result(restore_result(record))
            names = record["log_names"]
            return outcome, {
                "match_mode": "store",
                "matrix_key": mkey,
                "ingest_modes": ("store", "store"),
                "log_names": (str(names[0]), str(names[1])),
            }

    sides = []
    for source, side_fmt, report in (
        (source_first, fmt_first, reports[0]),
        (source_second, fmt_second, reports[1]),
    ):
        try:
            sides.append(ingest_graph(
                source, side_fmt, on_error, report,
                min_frequency=min_frequency, store=store, observer=observer,
            ))
        except LogFormatError as error:
            # Tag the failing side so callers can dead-letter the right
            # file — both sides are ingested inside this one call.
            error.source = os.fspath(source)  # type: ignore[attr-defined]
            raise
    (graph_first, res_first), (graph_second, res_second) = sides

    outcome, result, runtime = matcher.match_graphs_detailed(graph_first, graph_second)
    if (
        usable
        and runtime.stage == "exact"
        and result.converged
        and not result.estimated
        and result.directional
    ):
        store.put_matrix(
            mkey,
            matrix_record(result, config, (res_first.log_name, res_second.log_name)),
        )
    return outcome, {
        "match_mode": "computed",
        "matrix_key": mkey,
        "ingest_modes": (res_first.mode, res_second.mode),
        "log_names": (res_first.log_name, res_second.log_name),
    }

