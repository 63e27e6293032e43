"""Per-event ingest oracle for the column-building CSV and XES readers.

``src/`` parses each log straight into a trace's activity and timestamp
columns.  The readers here take the straightforward route — one
:class:`~repro.logs.events.Event` per row or ``<event>``, then a
:class:`~repro.logs.events.Trace` over those events — and keep every row
check, every fault mode and every :class:`IngestionReport` entry of the
production readers.  They are the ground truth
``tests/property/test_property_ingest.py`` holds the production readers
to.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import csv
import io
import xml.etree.ElementTree as ET
from typing import IO

from repro.exceptions import LogFormatError
from repro.logs.csvio import ACTIVITY_COLUMN, CASE_COLUMN, TIMESTAMP_COLUMN
from repro.logs.events import Event, Trace
from repro.logs.log import EventLog
from repro.logs.xes import _CONCEPT_NAME, _TIMESTAMP, _local, _parse_timestamp
from repro.runtime.report import IngestionReport


def read_csv(handle: IO[str], name: str, on_error: str, report: IngestionReport) -> EventLog:
    """CSV rows to a log, one :class:`Event` per loaded row."""
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
        sink = io.StringIO()
        csv.writer(sink).writerow(row)
        return sink.getvalue().encode("utf-8")

    def reject(row_number: int, problem: str, row: list[str]) -> None:
        if on_error == "raise":
            raise LogFormatError(f"row {row_number}: {problem}")
        report.record_dropped(f"row {row_number}", problem, row_bytes(row))

    cases: dict[str, list[tuple[float | None, int, Event]]] = {}
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
                    report.record_dropped(f"row {row_number}", problem, row_bytes(row))
                    continue
                report.record_repaired(f"row {row_number}", f"{problem} treated as missing")
                timestamp = None
        report.events_loaded += 1
        cases.setdefault(case_id, []).append((timestamp, row_number, Event(activity, timestamp)))

    log = EventLog(name=name)
    for case_id, entries in cases.items():
        with_timestamp = sum(1 for timestamp, _, _ in entries if timestamp is not None)
        if with_timestamp == len(entries):
            entries.sort(key=lambda entry: (entry[0], entry[1]))
        elif with_timestamp:
            report.record_fallback(case_id)
        log.append(Trace((event for _, _, event in entries), case_id=case_id))
    return log


def read_xes(handle: IO[bytes], on_error: str, report: IngestionReport) -> EventLog:
    """An XES document to a log, one :class:`Event` per loaded ``<event>``.

    The whole document is walked with ``iterparse``; a parse error after
    some traces closed keeps those traces unless *on_error* is ``raise``.
    """
    log = EventLog(name="log")
    depth = 0
    root: ET.Element | None = None
    trace_index = 0
    try:
        for kind, element in ET.iterparse(handle, events=("start", "end")):
            if kind == "start":
                if root is None:
                    root = element
                    if _local(element.tag) != "log":
                        raise LogFormatError(
                            f"expected a <log> root element, found <{element.tag}>"
                        )
                depth += 1
                continue
            depth -= 1
            if depth != 1:
                continue
            tag = _local(element.tag)
            if tag == "trace":
                trace = _trace(element, trace_index, on_error, report)
                trace_index += 1
                if trace is not None:
                    log.append(trace)
            elif tag == "string" and element.get("key") == _CONCEPT_NAME:
                log.name = element.get("value", "log")
            root.clear()
    except ET.ParseError as exc:
        if on_error == "raise":
            raise LogFormatError(f"malformed XES document: {exc}") from exc
        report.record_truncation(str(exc))
    return log


def _trace(
    trace_el: ET.Element, trace_index: int, on_error: str, report: IngestionReport
) -> Trace | None:
    case_id: str | None = None
    events: list[Event] = []
    event_index = 0
    for child in trace_el:
        child_tag = _local(child.tag)
        if child_tag == "string" and child.get("key") == _CONCEPT_NAME:
            case_id = child.get("value")
        elif child_tag == "event":
            report.record_row(loaded=False)
            event = _event(child, f"trace {trace_index} event {event_index}", on_error, report)
            event_index += 1
            if event is not None:
                report.events_loaded += 1
                events.append(event)
    if not events:
        return None
    return Trace(events, case_id=case_id)


def _event(
    event_el: ET.Element, location: str, on_error: str, report: IngestionReport
) -> Event | None:
    activity: str | None = None
    timestamp: float | None = None
    attributes: dict[str, str] = {}
    for attr in event_el:
        key = attr.get("key")
        value = attr.get("value")
        if key is None or value is None:
            continue
        if key == _CONCEPT_NAME:
            activity = value
        elif key == _TIMESTAMP:
            try:
                timestamp = _parse_timestamp(value)
            except LogFormatError:
                problem = f"invalid timestamp {value!r}"
                if on_error == "raise":
                    raise LogFormatError(f"{location}: {problem}") from None
                if on_error == "skip":
                    report.record_dropped(location, problem, ET.tostring(event_el))
                    return None
                report.record_repaired(location, f"{problem} treated as missing")
                timestamp = None
        elif _local(attr.tag) == "string":
            attributes[key] = value
    if activity is None or not activity.strip():
        problem = "event without a concept:name activity"
        if on_error == "raise":
            raise LogFormatError(f"{location}: {problem}")
        report.record_dropped(location, problem, ET.tostring(event_el))
        return None
    return Event(activity, timestamp, attributes)
