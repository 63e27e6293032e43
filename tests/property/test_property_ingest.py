"""Differential suite: the column-building readers equal the per-event oracle.

``read_csv`` and ``read_xes`` build each trace's activity and timestamp
columns directly; ``tests/ingest_oracle.py`` builds one ``Event`` per row
or ``<event>``.  On messy input, in every ``on_error`` mode, both must
give the same traces in the same order (activities, timestamps,
attributes, case ids), the same error when one is raised, and the same
:class:`IngestionReport`, down to the bytes handed to the dead-letter
archive.
"""

from __future__ import annotations

import csv
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import LogFormatError
from repro.logs.csvio import read_csv
from repro.logs.xes import read_xes
from repro.runtime.report import IngestionReport
from tests import ingest_oracle as oracle

MODES = ("raise", "skip", "repair")


class RecordingArchive:
    """Collects what a reader hands the dead-letter archive."""

    def __init__(self) -> None:
        self.payloads: list[tuple[bytes, dict]] = []

    def put(self, payload: bytes, context: dict) -> str:
        self.payloads.append((payload, context))
        return str(len(self.payloads))


def fresh_report(mode: str) -> IngestionReport:
    return IngestionReport(source="input", mode=mode, archive=RecordingArchive())


def read_both(read_production, read_oracle, mode):
    """``(log or error message, report)`` from each reader."""
    results = []
    for read in (read_production, read_oracle):
        report = fresh_report(mode)
        try:
            outcome = read(report)
        except LogFormatError as error:
            outcome = f"LogFormatError: {error}"
        results.append((outcome, report))
    return results


def trace_rows(log):
    """Everything a log holds, trace by trace; timestamps by ``repr`` so
    that NaN compares equal to itself."""
    return log.name, [
        (
            trace.case_id,
            trace.activities,
            [
                (event.activity, repr(event.timestamp), dict(event.attributes))
                for event in trace.events
            ],
        )
        for trace in log
    ]


def report_state(report: IngestionReport):
    return (
        report.rows_seen,
        report.events_loaded,
        report.dropped,
        report.repaired,
        report.fallback_cases,
        report.truncation,
        report.archived,
        report.archive.payloads,
    )


def assert_same(results) -> None:
    (production, production_report), (expected, expected_report) = results
    if isinstance(expected, str) or isinstance(production, str):
        assert production == expected
    else:
        assert trace_rows(production) == trace_rows(expected)
    assert report_state(production_report) == report_state(expected_report)


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
case_ids = st.sampled_from(["c1", "c2", "c3", "c,4", "", " ", "\t"])
activities = st.sampled_from(["a", "b", "c", "x,y", 'say "hi"', "", "  ", "é"])
timestamps = st.sampled_from(
    ["", "1", "2", "2", "2.0", "1.5", "-3", "1e3", " 4 ", "bad", "12:00", "nan", "inf"]
)
HEADERS = (
    ("case_id", "activity", "timestamp"),
    ("timestamp", "activity", "case_id"),
    ("case_id", "activity"),
    ("activity", "resource", "case_id", "timestamp"),
)


@st.composite
def csv_documents(draw) -> str:
    header = draw(st.sampled_from(HEADERS))
    sink = io.StringIO()
    writer = csv.writer(sink)
    writer.writerow(header)
    for kind in draw(st.lists(st.sampled_from("rrrrrrbs"), max_size=30)):
        if kind == "b":
            sink.write("\r\n")  # a blank line
            continue
        values = {
            "case_id": draw(case_ids),
            "activity": draw(activities),
            "timestamp": draw(timestamps),
            "resource": "r",
        }
        row = [values[column] for column in header]
        if kind == "s":  # a short row: cut anywhere before the last column
            row = row[: draw(st.integers(0, len(row) - 1))]
            if not row:
                row = [""]
        writer.writerow(row)
    return sink.getvalue()


def csv_results(text: str, mode: str):
    return read_both(
        lambda report: read_csv(io.StringIO(text), name="prop", on_error=mode, report=report),
        lambda report: oracle.read_csv(io.StringIO(text), "prop", mode, report),
        mode,
    )


@pytest.mark.parametrize("mode", MODES)
@given(text=csv_documents())
@settings(max_examples=150, deadline=None)
@example(text="case_id,activity,timestamp\r\nc1,a,2\r\nc1,b,1\r\nc1,c,1\r\n")
@example(text="case_id,activity,timestamp\r\nc1,a,2\r\nc1,b,\r\nc2,a,bad\r\n")
@example(text="case_id,activity,timestamp\r\n\r\nc1,a\r\n \t,b,1\r\nc1, ,1\r\n")
def test_csv_reader_equals_oracle(mode, text):
    assert_same(csv_results(text, mode))


@pytest.mark.parametrize("text", ["", "case_id,timestamp\r\nc1,1\r\n"])
@pytest.mark.parametrize("mode", MODES)
def test_csv_document_faults_equal_oracle(mode, text):
    results = csv_results(text, mode)
    assert results[0][0].startswith("LogFormatError")
    assert_same(results)


# ----------------------------------------------------------------------
# XES
# ----------------------------------------------------------------------
xes_names = st.sampled_from([None, "a", "b", "c & d", "", "  "])
xes_times = st.sampled_from(
    [None, "2014-06-22T10:00:00.000+00:00", "2014-06-22T09:00:00", "yesterday", ""]
)


def attribute(tag: str, key: str, value: str) -> str:
    return f'<{tag} key="{key}" value="{value}"/>'


@st.composite
def xes_events(draw) -> str:
    parts = []
    name = draw(xes_names)
    if name is not None:
        parts.append(attribute("string", "concept:name", name.replace("&", "&amp;")))
    stamp = draw(xes_times)
    if stamp is not None:
        parts.append(attribute("date", "time:timestamp", stamp))
    if draw(st.booleans()):
        parts.append(attribute("string", "org:resource", draw(st.sampled_from(["r1", "r2"]))))
    if draw(st.booleans()):
        parts.append(attribute("int", "cost", "3"))
    if draw(st.booleans()):
        parts.append('<string key="note"/>')  # no value: ignored
    return "<event>" + "".join(parts) + "</event>"


@st.composite
def xes_documents(draw) -> bytes:
    traces = []
    for index in range(draw(st.integers(0, 5))):
        case = draw(st.sampled_from([None, f"case-{index}", "shared"]))
        head = attribute("string", "concept:name", case) if case is not None else ""
        events = "".join(draw(st.lists(xes_events(), max_size=5)))
        traces.append(f"<trace>{head}{events}</trace>")
    document = (
        '<?xml version="1.0" encoding="utf-8"?>'
        '<log xes.version="1.0">'
        + attribute("string", "concept:name", draw(st.sampled_from(["demo", "other"])))
        + "".join(traces)
        + "</log>"
    ).encode()
    if draw(st.booleans()):  # an interrupted export
        document = document[: draw(st.integers(40, len(document)))]
    return document


def xes_results(data: bytes, mode: str):
    return read_both(
        lambda report: read_xes(io.BytesIO(data), on_error=mode, report=report),
        lambda report: oracle.read_xes(io.BytesIO(data), mode, report),
        mode,
    )


@pytest.mark.parametrize("mode", MODES)
@given(data=xes_documents())
@settings(max_examples=100, deadline=None)
def test_xes_reader_equals_oracle(mode, data):
    assert_same(xes_results(data, mode))


@pytest.mark.parametrize("mode", MODES)
def test_xes_wrong_root_equals_oracle(mode):
    results = xes_results(b"<notalog><trace/></notalog>", mode)
    assert results[0][0].startswith("LogFormatError")
    assert_same(results)
