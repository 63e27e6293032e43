"""Ingestion pipeline: every route yields the batch answer, bit for bit."""

import pickle
import random
import sqlite3

import pytest

from repro.graph.dependency import DependencyGraph
from repro.logs.csvio import read_csv
from repro.logs.stats import compute_statistics
from repro.logs.xes import read_xes, write_xes
from repro.runtime.report import IngestionReport
from repro.store import LogStore, ingest_graph, ingest_key, ingest_statistics


@pytest.fixture()
def csv_log(tmp_path):
    rng = random.Random(5)
    rows = ["case_id,activity,timestamp"]
    for i in range(30):
        for position in range(rng.randint(1, 6)):
            rows.append(f"case-{i},act-{rng.randint(0, 7)},{position}.0")
    path = tmp_path / "events.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture()
def store(tmp_path):
    store = LogStore(tmp_path / "cache" / "store.db")
    yield store
    store.close()


def batch(path):
    log = read_csv(path, name=path.stem) if path.suffix == ".csv" else read_xes(path)
    return compute_statistics(log)


class TestRouteEquivalence:
    def test_streamed_matches_batch(self, csv_log):
        result = ingest_statistics(csv_log)
        assert result.mode == "streamed"
        assert result.statistics == batch(csv_log)
        assert result.log_name == "events"

    def test_xes_routes_match_batch(self, csv_log, tmp_path, store):
        log = read_csv(csv_log, name="handover")
        xes_path = tmp_path / "handover.xes"
        write_xes(log, xes_path)
        expected = compute_statistics(log)
        streamed = ingest_statistics(xes_path)
        cold = ingest_statistics(xes_path, store=store)
        warm = ingest_statistics(xes_path, store=store)
        assert [streamed.mode, cold.mode, warm.mode] == [
            "streamed", "streamed", "store"
        ]
        for result in (streamed, cold, warm):
            assert result.statistics == expected
            assert result.log_name == "handover"

    def test_frequencies_bit_identical_across_routes(self, csv_log, store):
        reference = batch(csv_log)
        results = [
            ingest_statistics(csv_log),
            ingest_statistics(csv_log, store=store),
            ingest_statistics(csv_log, store=store),
        ]
        assert [result.mode for result in results] == [
            "streamed", "streamed", "store"
        ]
        for result in results:
            assert result.statistics.activity_frequencies == (
                reference.activity_frequencies
            )
            assert result.statistics.pair_frequencies == (
                reference.pair_frequencies
            )


class TestStoreRoute:
    def test_second_ingest_served_from_store(self, csv_log, store):
        cold = ingest_statistics(csv_log, store=store)
        assert cold.mode == "streamed"
        warm = ingest_statistics(csv_log, store=store)
        assert warm.mode == "store"
        assert warm.statistics == cold.statistics
        assert warm.log_name == cold.log_name
        assert store.hits >= 1

    def test_store_hit_skips_parsing(self, csv_log, store):
        ingest_statistics(csv_log, store=store)
        report = IngestionReport(mode="raise")
        result = ingest_statistics(csv_log, store=store, report=report)
        assert result.mode == "store"
        assert report.rows_seen == 0  # nothing was parsed

    def test_changed_content_invalidates(self, csv_log, store):
        ingest_statistics(csv_log, store=store)
        text = csv_log.read_text()
        # Rewrite an existing row: not an append, a different log.
        csv_log.write_text(text.replace("act-0", "act-9", 1))
        result = ingest_statistics(csv_log, store=store)
        assert result.mode == "streamed"
        assert result.statistics == batch(csv_log)

    def test_mode_and_threshold_key_separately(self, csv_log, store):
        raise_key = ingest_statistics(csv_log, store=store).counts_key
        repair_key = ingest_statistics(
            csv_log, on_error="repair", store=store
        ).counts_key
        assert raise_key != repair_key


class TestAppendFastPath:
    def append_rows(self, path, rows):
        with open(path, "a") as handle:
            handle.writelines(f"{row}\n" for row in rows)

    def test_disjoint_append_merges_tail(self, csv_log, store):
        ingest_statistics(csv_log, store=store)
        self.append_rows(
            csv_log,
            ["case-new-1,act-0,0.0", "case-new-1,act-1,1.0", "case-new-2,act-2,0.0"],
        )
        result = ingest_statistics(csv_log, store=store)
        assert result.mode == "store-append"
        assert result.statistics == batch(csv_log)

    def test_append_report_covers_only_tail(self, csv_log, store):
        ingest_statistics(csv_log, store=store)
        self.append_rows(csv_log, ["case-new-1,act-0,0.0"])
        report = IngestionReport(mode="raise")
        result = ingest_statistics(csv_log, store=store, report=report)
        assert result.mode == "store-append"
        assert report.events_loaded == 1

    def test_overlapping_case_falls_back_cold(self, csv_log, store):
        ingest_statistics(csv_log, store=store)
        self.append_rows(csv_log, ["case-0,act-5,99.0"])  # continues a stored case
        result = ingest_statistics(csv_log, store=store)
        assert result.mode == "streamed"
        assert result.statistics == batch(csv_log)

    def test_append_then_hit(self, csv_log, store):
        ingest_statistics(csv_log, store=store)
        self.append_rows(csv_log, ["case-new-1,act-0,0.0"])
        appended = ingest_statistics(csv_log, store=store)
        assert appended.mode == "store-append"
        again = ingest_statistics(csv_log, store=store)
        assert again.mode == "store"
        assert again.statistics == appended.statistics

    def test_repeated_appends_stack(self, csv_log, store):
        ingest_statistics(csv_log, store=store)
        for generation in range(3):
            self.append_rows(csv_log, [f"case-gen-{generation},act-1,0.0"])
            result = ingest_statistics(csv_log, store=store)
            assert result.mode == "store-append"
            assert result.statistics == batch(csv_log)

    def test_altered_ingest_record_goes_cold(self, csv_log, store):
        # A stored header with two columns swapped would parse the tail
        # with case ids as activities; the record's digest rejects it.
        ingest_statistics(csv_log, store=store)
        key = ingest_key(csv_log, "csv", "raise")
        connection = sqlite3.connect(store.path)
        (payload,), = connection.execute(
            "SELECT payload FROM ingests WHERE key = ?", (key,)
        ).fetchall()
        record = pickle.loads(payload)
        assert record["header"] == "case_id,activity,timestamp\n"
        record["header"] = "activity,case_id,timestamp\n"
        connection.execute(
            "UPDATE ingests SET payload = ? WHERE key = ?",
            (pickle.dumps(record), key),
        )
        connection.commit()
        connection.close()
        self.append_rows(
            csv_log,
            ["case-new-1,act-0,0.0", "case-new-1,act-1,1.0", "case-new-2,act-2,0.0"],
        )
        result = ingest_statistics(csv_log, store=store)
        assert result.mode == "streamed"
        assert result.statistics == ingest_statistics(csv_log).statistics

    def test_file_without_trailing_newline_skips_bookkeeping(self, tmp_path, store):
        path = tmp_path / "open.csv"
        path.write_text("case_id,activity,timestamp\nc0,a,1.0")  # no final newline
        first = ingest_statistics(path, store=store)
        assert first.mode == "streamed"
        with open(path, "a") as handle:
            handle.write(",b,2.0\nc1,c,3.0\n")  # finishes the torn row
        result = ingest_statistics(path, store=store)
        assert result.mode == "streamed"  # never the append path
        assert result.statistics == batch(path)


class TestStoreCorruptionDegrades:
    def test_garbage_database_still_yields_right_answer(self, csv_log, tmp_path):
        db = tmp_path / "cache" / "store.db"
        db.parent.mkdir(parents=True)
        db.write_bytes(b"not a database")
        store = LogStore(db)
        try:
            result = ingest_statistics(csv_log, store=store)
            assert result.statistics == batch(csv_log)
            warm = ingest_statistics(csv_log, store=store)
            assert warm.mode == "store"
        finally:
            store.close()


class TestIngestGraph:
    def test_graph_matches_batch_graph(self, csv_log):
        graph, result = ingest_graph(csv_log, min_frequency=0.2)
        expected = DependencyGraph.from_log(
            read_csv(csv_log, name="events"), min_frequency=0.2
        )
        assert graph.nodes == expected.nodes
        assert graph.real_edges == expected.real_edges
        assert result.mode == "streamed"

    def test_graph_memoized_per_threshold(self, csv_log, store):
        # Only the counts are stored: a warm graph at any threshold is
        # rebuilt from them, bit-identical to the cold build.
        for min_frequency in (0.1, 0.9):
            graph_cold, _ = ingest_graph(csv_log, min_frequency=min_frequency)
            graph_warm, result = ingest_graph(
                csv_log, min_frequency=min_frequency, store=store
            )
            assert pickle.dumps(graph_warm) == pickle.dumps(graph_cold)
            graph_warm, result = ingest_graph(
                csv_log, min_frequency=min_frequency, store=store
            )
            assert result.mode == "store"
            assert pickle.dumps(graph_warm) == pickle.dumps(graph_cold)


class TestXesAppendFastPath:
    @pytest.fixture()
    def xes_log(self, csv_log, tmp_path):
        log = read_csv(csv_log, name="handover")
        path = tmp_path / "handover.xes"
        write_xes(log, path)
        return path

    def grow_xes(self, path, traces):
        """Insert new <trace> elements before </log>, prefix untouched."""
        data = path.read_bytes()
        offset = data.rfind(b"</log>")
        assert offset > 0
        chunk = b""
        for case_id, activities in traces:
            chunk += (
                f'  <trace><string key="concept:name" value="{case_id}"/>'
            ).encode()
            for activity in activities:
                chunk += (
                    f'<event><string key="concept:name" '
                    f'value="{activity}"/></event>'
                ).encode()
            chunk += b"</trace>\n"
        path.write_bytes(data[:offset] + chunk + data[offset:])

    def test_disjoint_append_merges_tail(self, xes_log, store):
        ingest_statistics(xes_log, store=store)
        self.grow_xes(
            xes_log,
            [("case-new-1", ["act-0", "act-1"]), ("case-new-2", ["act-2"])],
        )
        result = ingest_statistics(xes_log, store=store)
        assert result.mode == "store-append"
        assert result.statistics == batch(xes_log)

    def test_append_report_covers_only_tail(self, xes_log, store):
        ingest_statistics(xes_log, store=store)
        self.grow_xes(xes_log, [("case-new-1", ["act-0"])])
        report = IngestionReport(mode="raise")
        result = ingest_statistics(xes_log, store=store, report=report)
        assert result.mode == "store-append"
        assert report.events_loaded == 1

    def test_overlapping_case_falls_back_cold(self, xes_log, store):
        ingest_statistics(xes_log, store=store)
        self.grow_xes(xes_log, [("case-0", ["act-5"])])  # a stored case
        result = ingest_statistics(xes_log, store=store)
        assert result.mode == "streamed"
        assert result.statistics == batch(xes_log)

    def test_append_then_hit(self, xes_log, store):
        ingest_statistics(xes_log, store=store)
        self.grow_xes(xes_log, [("case-new-1", ["act-0"])])
        appended = ingest_statistics(xes_log, store=store)
        assert appended.mode == "store-append"
        again = ingest_statistics(xes_log, store=store)
        assert again.mode == "store"
        assert again.statistics == appended.statistics

    def test_repeated_appends_stack(self, xes_log, store):
        ingest_statistics(xes_log, store=store)
        for generation in range(3):
            self.grow_xes(xes_log, [(f"case-gen-{generation}", ["act-1"])])
            result = ingest_statistics(xes_log, store=store)
            assert result.mode == "store-append"
            assert result.statistics == batch(xes_log)

    def test_changed_prefix_invalidates(self, xes_log, store):
        ingest_statistics(xes_log, store=store)
        data = xes_log.read_bytes()
        # Rewrite an existing activity in place: same size, new bytes —
        # the prefix digest must force a cold parse.
        xes_log.write_bytes(data.replace(b'value="act-0"', b'value="act-9"', 1))
        result = ingest_statistics(xes_log, store=store)
        assert result.mode == "streamed"
        assert result.statistics == batch(xes_log)
