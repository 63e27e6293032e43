"""Minimal XES (eXtensible Event Stream, IEEE 1849) reader and writer.

Only the subset of XES the matching pipeline needs is supported: traces
with ``concept:name`` (case id), events with ``concept:name`` (activity),
optional ``time:timestamp``, and flat string attributes.  This keeps the
library dependency-free while staying interoperable with standard process
mining tools — logs written here load in ProM/pm4py and vice versa for
logs using only these elements.

:func:`read_xes` supports the same ``on_error="raise"|"skip"|"repair"``
fault modes as the CSV reader.  Parsing is streaming end to end: the
document is walked with :func:`xml.etree.ElementTree.iterparse` and each
``<trace>`` element is released as soon as it has been converted, so
memory is O(largest trace), not O(document).  Expat defers end-of-input
errors until the stream is exhausted, which makes truncation salvage
(the classic failure of an interrupted export) fall out of the same
single pass: every trace completed before the break has already been
yielded when the parse error surfaces, and in the non-raising modes the
truncation is recorded in the :class:`~repro.runtime.IngestionReport`
instead of raised.  Event-level faults (missing ``concept:name``,
malformed timestamps) are dropped or repaired per mode.

Each ``<event>`` that loads adds its activity, timestamp and string
attributes to its trace's columns (:meth:`Trace.from_columns
<repro.logs.events.Trace.from_columns>`); the writer reads them back
from the columns.  Neither builds an :class:`~repro.logs.events.Event`.
"""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET
from datetime import datetime, timezone
from itertools import repeat
from typing import IO, Callable, Iterator

from repro.exceptions import LogFormatError
from repro.logs.events import Trace
from repro.logs.log import EventLog
from repro.runtime.report import IngestionReport

ON_ERROR_MODES = ("raise", "skip", "repair")

_CONCEPT_NAME = "concept:name"
_TIMESTAMP = "time:timestamp"
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _format_timestamp(seconds: float) -> str:
    moment = datetime.fromtimestamp(seconds, tz=timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%S.%f")[:-3] + "+00:00"


def _parse_timestamp(text: str) -> float:
    try:
        moment = datetime.fromisoformat(text)
    except ValueError as exc:
        raise LogFormatError(f"invalid XES timestamp {text!r}") from exc
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return (moment - _EPOCH).total_seconds()


def write_xes(log: EventLog, destination: str | os.PathLike[str] | IO[bytes]) -> None:
    """Serialize *log* to XES at *destination* (path or binary file)."""
    root = ET.Element("log", attrib={"xes.version": "1.0", "xes.features": ""})
    name_attr = ET.SubElement(root, "string")
    name_attr.set("key", _CONCEPT_NAME)
    name_attr.set("value", log.name)
    for index, trace in enumerate(log):
        trace_el = ET.SubElement(root, "trace")
        case_id = trace.case_id if trace.case_id is not None else f"case-{index}"
        case_el = ET.SubElement(trace_el, "string")
        case_el.set("key", _CONCEPT_NAME)
        case_el.set("value", case_id)
        attributes = trace.attributes or repeat({})
        for activity, timestamp, payload in zip(
            trace.activities, trace.timestamps, attributes
        ):
            event_el = ET.SubElement(trace_el, "event")
            activity_el = ET.SubElement(event_el, "string")
            activity_el.set("key", _CONCEPT_NAME)
            activity_el.set("value", activity)
            if timestamp is not None:
                ts_el = ET.SubElement(event_el, "date")
                ts_el.set("key", _TIMESTAMP)
                ts_el.set("value", _format_timestamp(timestamp))
            for key, value in payload.items():
                attr_el = ET.SubElement(event_el, "string")
                attr_el.set("key", key)
                attr_el.set("value", value)
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(destination, encoding="utf-8", xml_declaration=True)


def _local(tag_name: str) -> str:
    return tag_name.rsplit("}", 1)[-1]


def iter_xes_traces(
    source: str | os.PathLike[str] | IO[bytes],
    on_error: str = "raise",
    report: IngestionReport | None = None,
    name_sink: Callable[[str], None] | None = None,
) -> Iterator[Trace]:
    """Stream the traces of an XES document one at a time.

    The out-of-core entry point: traces are yielded as their ``</trace>``
    closes and the consumed subtree is cleared from the in-progress tree,
    so memory stays O(largest trace) no matter how large the document is.
    *name_sink* (if given) receives each ``concept:name`` value found at
    log level — the last call carries the log's name, exactly the value
    the batch reader would have used.

    Fault modes match :func:`read_xes`: under ``on_error="raise"`` a
    malformed document aborts with a :class:`LogFormatError`; otherwise
    every trace completed before the defect is yielded and the break is
    recorded as a truncation in *report*.  A root element other than
    ``<log>`` always raises.
    """
    if on_error not in ON_ERROR_MODES:
        raise ValueError(f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}")
    if report is None:
        report = IngestionReport(mode=on_error)
    if isinstance(source, (str, os.PathLike)) and not report.source:
        report.source = os.fspath(source)
    return _iter_traces(source, on_error, report, name_sink)


def _iter_traces(
    source: str | os.PathLike[str] | IO[bytes],
    on_error: str,
    report: IngestionReport,
    name_sink: Callable[[str], None] | None,
) -> Iterator[Trace]:
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as handle:
            yield from _iter_stream(handle, on_error, report, name_sink)
    else:
        yield from _iter_stream(source, on_error, report, name_sink)


def _iter_stream(
    handle: IO[bytes],
    on_error: str,
    report: IngestionReport,
    name_sink: Callable[[str], None] | None,
) -> Iterator[Trace]:
    root: ET.Element | None = None
    depth = 0
    trace_index = 0
    try:
        for kind, element in ET.iterparse(handle, events=("start", "end")):
            if kind == "start":
                if root is None:
                    root = element
                    if _local(element.tag) != "log":  # tolerate a default namespace
                        raise LogFormatError(
                            f"expected a <log> root element, found <{element.tag}>"
                        )
                depth += 1
                continue
            depth -= 1
            if depth != 1:
                continue  # only direct children of <log>
            tag = _local(element.tag)
            if tag == "trace":
                trace = _parse_trace(element, trace_index, on_error, report)
                trace_index += 1
                if trace is not None:
                    yield trace
            elif tag == "string" and element.get("key") == _CONCEPT_NAME:
                if name_sink is not None:
                    name_sink(element.get("value", "log"))
            # Release the consumed subtree: this is what bounds memory.
            assert root is not None
            root.clear()
    except ET.ParseError as exc:
        # Expat defers end-of-input errors until the stream runs dry, so
        # every trace that closed before the defect was already yielded —
        # the salvage semantics fall out of the single streaming pass.
        if on_error == "raise":
            raise LogFormatError(f"malformed XES document: {exc}") from exc
        report.record_truncation(str(exc))


def read_xes(
    source: str | os.PathLike[str] | IO[bytes],
    on_error: str = "raise",
    report: IngestionReport | None = None,
) -> EventLog:
    """Parse an XES document at *source* into an :class:`EventLog`.

    See the module docstring for the ``on_error`` fault modes; pass an
    :class:`~repro.runtime.IngestionReport` to receive the accounting of
    dropped/repaired events and of a salvaged truncation.
    """
    log = EventLog(name="log")

    def name_sink(value: str) -> None:
        log.name = value

    for trace in iter_xes_traces(source, on_error, report, name_sink):
        log.append(trace)
    return log


def _parse_trace(
    trace_el: ET.Element,
    trace_index: int,
    on_error: str,
    report: IngestionReport,
) -> Trace | None:
    case_id: str | None = None
    activities: list[str] = []
    timestamps: list[float | None] = []
    attributes: list[dict[str, str]] = []
    event_index = 0
    for child in trace_el:
        child_tag = _local(child.tag)
        if child_tag == "string" and child.get("key") == _CONCEPT_NAME:
            case_id = child.get("value")
        elif child_tag == "event":
            report.record_row(loaded=False)
            event = _parse_event(
                child, f"trace {trace_index} event {event_index}", on_error, report
            )
            event_index += 1
            if event is not None:
                report.events_loaded += 1
                activity, timestamp, payload = event
                activities.append(activity)
                timestamps.append(timestamp)
                attributes.append(payload)
    if not activities:
        return None
    return Trace.from_columns(activities, timestamps, attributes, case_id=case_id)


def _parse_event(
    event_el: ET.Element,
    location: str,
    on_error: str,
    report: IngestionReport,
) -> tuple[str, float | None, dict[str, str]] | None:
    """One event's ``(activity, timestamp, attributes)``, or ``None`` when
    *on_error* drops it."""
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
                    report.record_dropped(
                        location, problem, ET.tostring(event_el)
                    )
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
    return activity, timestamp, attributes
