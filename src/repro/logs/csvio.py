"""CSV reader/writer for event logs.

The flat format common in industry extracts: one row per event, columns
``case_id, activity, timestamp`` (timestamp optional).  Rows are grouped by
case id; within a case, rows are ordered by timestamp when present, by file
order otherwise.  The reader appends each loaded row's activity and
timestamp to its case's columns and hands those to
:meth:`Trace.from_columns <repro.logs.events.Trace.from_columns>`: no
:class:`~repro.logs.events.Event` is built while parsing.  The writer
reads the same columns back out.

Real extracts are messy, so :func:`read_csv` supports three fault modes:

* ``on_error="raise"`` (default) — the first bad row aborts the read with
  a :class:`~repro.exceptions.LogFormatError`;
* ``on_error="skip"`` — bad rows are dropped and listed in the
  :class:`~repro.runtime.IngestionReport`;
* ``on_error="repair"`` — recoverable faults are fixed in place (an
  unparseable timestamp becomes "no timestamp"); unrecoverable rows
  (missing columns, empty ``case_id``/``activity``) are still dropped.
  Every drop and repair is recorded.

File-level faults — an empty document or a header without the required
columns — always raise: there is no row-by-row recovery without a header.
A case holding *some but not all* timestamps falls back to file order in
every mode and is recorded as ``fallback_cases`` in the report.
"""

from __future__ import annotations

import csv
import io
import os
from typing import IO, Iterable

from repro.exceptions import LogFormatError
from repro.logs.events import Trace
from repro.logs.log import EventLog
from repro.runtime.report import IngestionReport

CASE_COLUMN = "case_id"
ACTIVITY_COLUMN = "activity"
TIMESTAMP_COLUMN = "timestamp"

ON_ERROR_MODES = ("raise", "skip", "repair")


def write_csv(log: EventLog, destination: str | os.PathLike[str] | IO[str]) -> None:
    """Serialize *log* as CSV to *destination* (path or text file)."""
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "w", newline="", encoding="utf-8") as handle:
            _write_rows(log, handle)
    else:
        _write_rows(log, destination)


def _write_rows(log: EventLog, handle: IO[str]) -> None:
    writer = csv.writer(handle)
    writer.writerow([CASE_COLUMN, ACTIVITY_COLUMN, TIMESTAMP_COLUMN])
    for index, trace in enumerate(log):
        case_id = trace.case_id if trace.case_id is not None else f"case-{index}"
        writer.writerows(
            (case_id, activity, "" if timestamp is None else repr(timestamp))
            for activity, timestamp in zip(trace.activities, trace.timestamps)
        )


def read_csv(
    source: str | os.PathLike[str] | IO[str],
    name: str = "log",
    on_error: str = "raise",
    report: IngestionReport | None = None,
) -> EventLog:
    """Parse CSV event data at *source* into an :class:`EventLog`.

    Case order in the output follows first appearance in the file.  See
    the module docstring for the ``on_error`` fault modes; pass an
    :class:`~repro.runtime.IngestionReport` to receive the per-row
    accounting of what was dropped or repaired.
    """
    if on_error not in ON_ERROR_MODES:
        raise ValueError(f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}")
    if report is None:
        report = IngestionReport(mode=on_error)
    if isinstance(source, (str, os.PathLike)):
        if not report.source:
            report.source = os.fspath(source)
        with open(source, newline="", encoding="utf-8") as handle:
            return _read_rows(handle, name, on_error, report)
    return _read_rows(source, name, on_error, report)


def _read_rows(
    handle: IO[str], name: str, on_error: str = "raise",
    report: IngestionReport | None = None,
) -> EventLog:
    if report is None:
        report = IngestionReport(mode=on_error)
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise LogFormatError("empty CSV document") from None
    try:
        case_idx = header.index(CASE_COLUMN)
        activity_idx = header.index(ACTIVITY_COLUMN)
    except ValueError:
        raise LogFormatError(
            f"CSV header must contain {CASE_COLUMN!r} and {ACTIVITY_COLUMN!r}; got {header!r}"
        ) from None
    timestamp_idx = header.index(TIMESTAMP_COLUMN) if TIMESTAMP_COLUMN in header else None

    def row_bytes(row: list[str]) -> bytes:
        """The rejected row re-serialized for the dead-letter archive."""
        sink = io.StringIO()
        csv.writer(sink).writerow(row)
        return sink.getvalue().encode("utf-8")

    def reject(row_number: int, problem: str, row: list[str]) -> None:
        """Apply *on_error* to an unrecoverable row."""
        if on_error == "raise":
            raise LogFormatError(f"row {row_number}: {problem}")
        report.record_dropped(f"row {row_number}", problem, row_bytes(row))

    # One (activities, timestamps) column pair per case, in file order.
    cases: dict[str, tuple[list[str], list[float | None]]] = {}
    for row_number, row in enumerate(reader, start=2):
        if not row:
            continue  # blank line, not event data
        report.record_row(loaded=False)
        try:
            case_id = row[case_idx]
            activity = row[activity_idx]
        except IndexError:
            reject(row_number, "missing required columns", row)
            continue
        if not case_id.strip():
            reject(row_number, f"empty {CASE_COLUMN!r}", row)
            continue
        if not activity.strip():
            reject(row_number, f"empty {ACTIVITY_COLUMN!r}", row)
            continue
        timestamp: float | None = None
        if timestamp_idx is not None and timestamp_idx < len(row) and row[timestamp_idx]:
            try:
                timestamp = float(row[timestamp_idx])
            except ValueError:
                problem = f"invalid timestamp {row[timestamp_idx]!r}"
                if on_error == "raise":
                    raise LogFormatError(f"row {row_number}: {problem}") from None
                if on_error == "skip":
                    report.record_dropped(
                        f"row {row_number}", problem, row_bytes(row)
                    )
                    continue
                # repair: keep the event, drop only the unusable timestamp
                report.record_repaired(
                    f"row {row_number}", f"{problem} treated as missing"
                )
                timestamp = None
        report.events_loaded += 1
        columns = cases.get(case_id)
        if columns is None:
            columns = cases[case_id] = ([], [])
        columns[0].append(activity)
        columns[1].append(timestamp)

    log = EventLog(name=name)
    for case_id, (activities, timestamps) in cases.items():
        missing = timestamps.count(None)
        if not missing:
            # A stable sort by timestamp: ties keep file order.
            order = sorted(range(len(timestamps)), key=timestamps.__getitem__)
            activities = list(map(activities.__getitem__, order))
            timestamps = list(map(timestamps.__getitem__, order))
        elif missing < len(timestamps):
            # Mixed timestamps: ordering silently changes meaning, so the
            # fallback to file order is recorded rather than guessed around.
            report.record_fallback(case_id)
        log.append(Trace.from_columns(activities, timestamps, case_id=case_id))
    return log


def traces_from_rows(rows: Iterable[tuple[str, str]], name: str = "log") -> EventLog:
    """Build a log from in-memory ``(case_id, activity)`` rows, in order."""
    cases: dict[str, list[str]] = {}
    for case_id, activity in rows:
        cases.setdefault(case_id, []).append(activity)
    log = EventLog(name=name)
    for case_id, activities in cases.items():
        log.append(Trace.from_columns(activities, case_id=case_id))
    return log
