"""Streamed ingestion input: CSV case-hash partitions and XES trace streams."""

import random

import pytest

from repro.exceptions import LogFormatError
from repro.logs.csvio import read_csv
from repro.logs.stats import compute_statistics
from repro.logs.xes import write_xes
from repro.runtime.report import IngestionReport
from repro.store import partition_csv, resolve_format, stream_traces


@pytest.fixture()
def interleaved_csv(tmp_path):
    """A CSV whose cases interleave heavily — the hard case for streaming."""
    rng = random.Random(11)
    activities = [f"step-{i}" for i in range(9)]
    cases = {
        f"case-{i}": [rng.choice(activities) for _ in range(rng.randint(1, 7))]
        for i in range(35)
    }
    queue = [
        (case_id, position, activity)
        for case_id, sequence in cases.items()
        for position, activity in enumerate(sequence)
    ]
    rng.shuffle(queue)
    queue.sort(key=lambda entry: entry[1])  # interleave, keep per-case order
    rows = ["case_id,activity,timestamp"]
    rows += [f"{c},{a},{p}.0" for c, p, a in queue]
    path = tmp_path / "interleaved.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def batch_stats(path, fmt="csv"):
    return compute_statistics(read_csv(path, name=path.stem))


class TestResolveFormat:
    def test_auto_by_suffix(self, tmp_path):
        assert resolve_format(tmp_path / "x.xes") == "xes"
        assert resolve_format(tmp_path / "x.CSV") == "csv"

    def test_unknown_suffix_raises(self, tmp_path):
        with pytest.raises(LogFormatError, match="cannot infer"):
            resolve_format(tmp_path / "x.parquet")

    def test_unknown_format_raises(self, tmp_path):
        with pytest.raises(LogFormatError, match="unknown format"):
            resolve_format(tmp_path / "x.csv", "arrow")


class TestCsvPartitioning:
    def test_cases_never_split_across_partitions(self, interleaved_csv, tmp_path):
        paths = partition_csv(interleaved_csv, tmp_path / "spill", partitions=8)
        seen: dict[str, int] = {}
        for index, path in enumerate(paths):
            with open(path) as handle:
                next(handle)  # header
                for line in handle:
                    case_id = line.split(",", 1)[0]
                    assert seen.setdefault(case_id, index) == index
        assert len(seen) == 35

    def test_partitioned_stream_matches_batch(self, interleaved_csv, tmp_path):
        from repro.logs.streaming import OnlineStatistics

        stats = OnlineStatistics()
        for _, activities in stream_traces(
            interleaved_csv, spill_dir=tmp_path / "spill"
        ):
            stats.add_sequence(activities)
        assert stats.snapshot() == batch_stats(interleaved_csv)

    def test_report_accounting_matches_batch_totals(self, interleaved_csv, tmp_path):
        batch_report = IngestionReport(mode="raise")
        read_csv(interleaved_csv, on_error="raise", report=batch_report)
        stream_report = IngestionReport(mode="raise")
        list(
            stream_traces(
                interleaved_csv, on_error="raise", report=stream_report,
                spill_dir=tmp_path / "spill",
            )
        )
        assert stream_report.rows_seen == batch_report.rows_seen
        assert stream_report.events_loaded == batch_report.events_loaded

    def test_bad_rows_rejected_with_same_counts(self, tmp_path):
        path = tmp_path / "messy.csv"
        path.write_text(
            "case_id,activity,timestamp\n"
            "c1,a,1.0\n"
            ",missing-case,2.0\n"       # empty case id
            "c2,,3.0\n"                  # empty activity
            "c1,b,oops\n"                # bad timestamp
            "c3,d,4.0\n"
        )
        batch_report = IngestionReport(mode="repair")
        batch = read_csv(path, on_error="repair", report=batch_report)
        stream_report = IngestionReport(mode="repair")
        from repro.logs.streaming import OnlineStatistics

        stats = OnlineStatistics()
        for _, activities in stream_traces(
            path, on_error="repair", report=stream_report,
            spill_dir=tmp_path / "spill",
        ):
            stats.add_sequence(activities)
        assert stats.snapshot() == compute_statistics(batch)
        assert stream_report.rows_dropped == batch_report.rows_dropped
        assert stream_report.rows_repaired == batch_report.rows_repaired
        assert stream_report.rows_seen == batch_report.rows_seen

    def test_missing_header_raises_before_spill(self, tmp_path):
        path = tmp_path / "headerless.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(LogFormatError, match="header"):
            partition_csv(path, tmp_path / "spill")
        assert not (tmp_path / "spill").exists() or not list(
            (tmp_path / "spill").glob("part-*.csv")
        )

    def test_csv_stream_requires_spill_dir(self, interleaved_csv):
        with pytest.raises(ValueError, match="spill_dir"):
            stream_traces(interleaved_csv)


class TestXesStreaming:
    def test_xes_stream_matches_batch(self, interleaved_csv, tmp_path):
        log = read_csv(interleaved_csv, name="demo")
        xes_path = tmp_path / "demo.xes"
        write_xes(log, xes_path)
        pairs = list(stream_traces(xes_path))
        assert [case_id for case_id, _ in pairs] == [t.case_id for t in log]
        from repro.logs.streaming import OnlineStatistics

        stats = OnlineStatistics()
        for _, activities in pairs:
            stats.add_sequence(activities)
        assert stats.snapshot() == compute_statistics(log)

    def test_name_sink_sees_xes_log_name(self, tmp_path):
        from repro.logs.log import EventLog

        log = EventLog([["a", "b"]], name="tickets")
        path = tmp_path / "t.xes"
        write_xes(log, path)
        names = []
        list(stream_traces(path, name_sink=names.append))
        assert names[-1] == "tickets"

