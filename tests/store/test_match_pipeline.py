"""Warm end-to-end matching: every store route is bit-identical to cold."""

import io
import random
import sqlite3

import numpy as np
import pytest

from repro.core.config import EMSConfig
from repro.core.ems import EMSEngine
from repro.graph.dependency import DependencyGraph
from repro.logs.csvio import read_csv, write_csv
from repro.logs.xes import read_xes, write_xes
from repro.matchers import EMSMatcher
from repro.runtime.budget import MatchBudget
from repro.store import MatchStore, match_stored
from repro.store.matchstore import matrix_content_key, restore_result
from repro.store.logstore import counts_content_key, file_digest
from repro.synthesis.corpus import build_scalability_pair


def write_pair(tmp_path, seed=3, cases=25):
    rng = random.Random(seed)
    paths = []
    for side, prefix in (("a", "p"), ("b", "q")):
        rows = ["case_id,activity"]
        for i in range(cases):
            for position in range(rng.randint(1, 5)):
                rows.append(f"case-{i},{prefix}{rng.randint(0, 6)}")
        path = tmp_path / f"{side}.csv"
        path.write_text("\n".join(rows) + "\n")
        paths.append(path)
    return tuple(paths)


def cold_outcome(paths):
    return EMSMatcher().match(
        read_csv(paths[0], name=paths[0].stem),
        read_csv(paths[1], name=paths[1].stem),
    )


def cold_matrix(paths, config=None):
    graphs = tuple(
        DependencyGraph.from_log(read_csv(path, name=path.stem))
        for path in paths
    )
    return EMSEngine(config or EMSConfig()).similarity(*graphs)


@pytest.fixture()
def store(tmp_path):
    store = MatchStore(tmp_path / "cache" / "match.db")
    yield store
    store.close()


def assert_same_outcome(left, right):
    assert left.correspondences == right.correspondences
    assert left.objective == right.objective


class TestFullHit:
    def test_second_run_serves_the_matrix(self, tmp_path, store):
        paths = write_pair(tmp_path)
        first, provenance = match_stored(*paths, matcher=EMSMatcher(), store=store)
        assert provenance["match_mode"] == "computed"
        second, provenance = match_stored(*paths, matcher=EMSMatcher(), store=store)
        assert provenance["match_mode"] == "store"
        assert provenance["log_names"] == ("a", "b")
        assert_same_outcome(first, second)
        assert_same_outcome(second, cold_outcome(paths))

    def test_served_matrix_is_bitwise_stored(self, tmp_path, store):
        paths = write_pair(tmp_path)
        match_stored(*paths, matcher=EMSMatcher(), store=store)
        key = matrix_content_key(
            counts_content_key(file_digest(paths[0]), "csv", "raise"),
            counts_content_key(file_digest(paths[1]), "csv", "raise"),
            0.0,
            EMSConfig(),
        )
        record = store.get_matrix(key)
        assert record is not None
        restored = restore_result(record)
        expected = cold_matrix(paths)
        np.testing.assert_array_equal(
            restored.matrix.values, expected.matrix.values
        )

    def test_different_config_misses(self, tmp_path, store):
        paths = write_pair(tmp_path)
        match_stored(*paths, matcher=EMSMatcher(), store=store)
        other = EMSMatcher(EMSConfig(alpha=0.7))
        _, provenance = match_stored(*paths, matcher=other, store=store)
        assert provenance["match_mode"] == "computed"

    def test_xes_pair_round_trips(self, tmp_path, store):
        csv_paths = write_pair(tmp_path)
        paths = []
        for path in csv_paths:
            log = read_csv(path, name=path.stem)
            xes_path = path.with_suffix(".xes")
            write_xes(log, xes_path)
            paths.append(xes_path)
        first, provenance = match_stored(*paths, matcher=EMSMatcher(), store=store)
        assert provenance["match_mode"] == "computed"
        second, provenance = match_stored(*paths, matcher=EMSMatcher(), store=store)
        assert provenance["match_mode"] == "store"
        assert_same_outcome(first, second)


class TestPartialHit:
    """A partial hit: the pair misses the matrix store because a side grew.

    The grown side's counts come from the append fast path
    (``store-append``); the fixpoint then runs cold, so the answer is
    bitwise the storeless one, and the new pair's matrix is stored.
    """

    def grow(self, path, rows):
        with open(path, "a") as handle:
            handle.writelines(f"{row}\n" for row in rows)

    def assert_grown_pair_runs_cold(self, paths, store, ingest_modes):
        outcome, provenance = match_stored(*paths, matcher=EMSMatcher(), store=store)
        assert provenance["match_mode"] == "computed"
        assert provenance["ingest_modes"] == ingest_modes
        assert_same_outcome(outcome, cold_outcome(paths))
        served, provenance = match_stored(*paths, matcher=EMSMatcher(), store=store)
        assert provenance["match_mode"] == "store"  # the next call is a full hit
        assert_same_outcome(served, outcome)

    def test_duplicated_traces_keep_frequencies(self, tmp_path, store):
        # Appending an exact copy of every trace under fresh case ids
        # doubles all counts and the trace total alike, so relative
        # frequencies stay bitwise equal — yet the pair still runs cold.
        paths = write_pair(tmp_path)
        match_stored(*paths, matcher=EMSMatcher(), store=store)
        tail = paths[0].read_text().splitlines()[1:]
        self.grow(paths[0], ["grown-" + row for row in tail])
        self.assert_grown_pair_runs_cold(paths, store, ("store-append", "store"))

    def test_structural_growth_is_bit_identical(self, tmp_path, store):
        # Growth that shifts frequencies and adds a brand-new activity.
        paths = write_pair(tmp_path)
        match_stored(*paths, matcher=EMSMatcher(), store=store)
        self.grow(
            paths[0],
            ["case-n1,p0", "case-n1,pNEW", "case-n2,pNEW", "case-n2,p3"],
        )
        self.assert_grown_pair_runs_cold(paths, store, ("store-append", "store"))

    def test_partial_run_persists_the_new_pair(self, tmp_path, store):
        paths = write_pair(tmp_path)
        match_stored(*paths, matcher=EMSMatcher(), store=store)
        tail = paths[0].read_text().splitlines()[1:]
        self.grow(paths[0], ["grown-" + row for row in tail])
        match_stored(*paths, matcher=EMSMatcher(), store=store)
        _, provenance = match_stored(*paths, matcher=EMSMatcher(), store=store)
        assert provenance["match_mode"] == "store"  # now a full hit
        # And the persisted matrix matches a cold computation bitwise.
        record = store.get_matrix(provenance["matrix_key"])
        np.testing.assert_array_equal(
            restore_result(record).matrix.values,
            cold_matrix(paths).matrix.values,
        )

    def test_both_sides_grown(self, tmp_path, store):
        paths = write_pair(tmp_path)
        match_stored(*paths, matcher=EMSMatcher(), store=store)
        self.grow(paths[0], ["case-n1,p0", "case-n1,p1"])
        self.grow(paths[1], ["case-n1,q0", "case-n1,q2"])
        self.assert_grown_pair_runs_cold(
            paths, store, ("store-append", "store-append")
        )


def write_traces(handle, log, start, stop):
    """Write traces ``start:stop`` of *log* as CSV rows with ids ``case-i``."""
    buffer = io.StringIO()
    write_csv(log, buffer)
    rows = buffer.getvalue().splitlines(keepends=True)
    if start == 0:
        handle.write(rows[0])
    first_row = 1 + sum(len(trace) for trace in log.traces[:start])
    last_row = first_row + sum(len(trace) for trace in log.traces[start:stop])
    handle.writelines(rows[first_row:last_row])


@pytest.mark.parametrize("seed", [*range(1, 9), 756942525])
def test_rematch_after_append_equals_cold(tmp_path, store, seed):
    # Generator-style growth: five new traces of the same process land on
    # one side.  The re-match must equal a storeless cold match bitwise.
    pair = build_scalability_pair(8, seed, traces_per_log=40)
    paths = (tmp_path / "a.csv", tmp_path / "b.csv")
    for path, log in zip(paths, (pair.log_first, pair.log_second)):
        with open(path, "w", newline="", encoding="utf-8") as handle:
            write_traces(handle, log, 0, 30)
    match_stored(*paths, matcher=EMSMatcher(), store=store)
    with open(paths[0], "a", newline="", encoding="utf-8") as handle:
        write_traces(handle, pair.log_first, 30, 35)
    outcome, provenance = match_stored(*paths, matcher=EMSMatcher(), store=store)
    assert provenance["ingest_modes"][0] == "store-append"
    assert_same_outcome(outcome, cold_outcome(paths))


class TestStoreGating:
    def test_budgeted_matcher_bypasses_matrix_store(self, tmp_path, store):
        paths = write_pair(tmp_path)
        budgeted = EMSMatcher(budget=MatchBudget(max_pair_updates=10**9))
        _, provenance = match_stored(*paths, matcher=budgeted, store=store)
        assert provenance["match_mode"] == "computed"
        assert store.get_matrix(provenance["matrix_key"]) is None  # not stored
        _, provenance = match_stored(*paths, matcher=budgeted, store=store)
        assert provenance["match_mode"] == "computed"  # and never served

    def test_estimated_result_is_not_persisted(self, tmp_path, store):
        paths = write_pair(tmp_path)
        estimating = EMSMatcher(EMSConfig(estimation_iterations=0))
        _, provenance = match_stored(*paths, matcher=estimating, store=store)
        assert store.get_matrix(provenance["matrix_key"]) is None

    def test_counts_and_graphs_still_memoized_under_budget(self, tmp_path, store):
        # Only the counts are stored; each graph is rebuilt from them.
        paths = write_pair(tmp_path)
        budgeted = EMSMatcher(budget=MatchBudget(max_pair_updates=10**9))
        match_stored(*paths, matcher=budgeted, store=store)
        _, provenance = match_stored(*paths, matcher=budgeted, store=store)
        assert provenance["ingest_modes"] == ("store", "store")


class TestCorruptionDegrades:
    def test_corrupt_matrix_row_computes_cold_same_answer(self, tmp_path, store):
        paths = write_pair(tmp_path)
        _, provenance = match_stored(*paths, matcher=EMSMatcher(), store=store)
        key = provenance["matrix_key"]
        # Flip a payload bit: the row digest rejects it at load time.
        connection = store._connection
        payload = connection.execute(
            "SELECT payload FROM matrices WHERE key = ?", (key,)
        ).fetchone()[0]
        connection.execute(
            "UPDATE matrices SET payload = ? WHERE key = ?",
            (payload[:-1] + bytes([payload[-1] ^ 0xFF]), key),
        )
        connection.commit()
        outcome, provenance = match_stored(*paths, matcher=EMSMatcher(), store=store)
        assert provenance["match_mode"] == "computed"  # degraded, not wrong
        assert_same_outcome(outcome, cold_outcome(paths))
        # The recompute healed the store: next run is a hit again.
        _, provenance = match_stored(*paths, matcher=EMSMatcher(), store=store)
        assert provenance["match_mode"] == "store"

    def test_store_of_the_previous_schema_starts_cold(self, tmp_path):
        # A version-2 store kept one `events` row per event beside the
        # counts: it is set aside whole and the match runs cold.
        paths = write_pair(tmp_path)
        db = tmp_path / "cache" / "match.db"
        db.parent.mkdir(parents=True)
        connection = sqlite3.connect(db)
        connection.execute("PRAGMA user_version = 2")
        connection.execute(
            "CREATE TABLE events (key TEXT NOT NULL, trace_id INTEGER NOT NULL,"
            " pos INTEGER NOT NULL, activity TEXT NOT NULL)"
        )
        connection.execute("INSERT INTO events VALUES ('k', 0, 0, 'p0')")
        connection.commit()
        connection.close()
        store = MatchStore(db)
        try:
            outcome, provenance = match_stored(
                *paths, matcher=EMSMatcher(), store=store
            )
        finally:
            store.close()
        assert db.with_name("match.db.corrupt").exists()
        assert provenance["match_mode"] == "computed"
        assert_same_outcome(outcome, cold_outcome(paths))


class TestSchema:
    def test_every_table_is_a_verified_record_table(self, tmp_path, store):
        paths = write_pair(tmp_path)
        match_stored(*paths, matcher=EMSMatcher(), store=store)
        _, provenance = match_stored(*paths, matcher=EMSMatcher(), store=store)
        assert provenance["match_mode"] == "store"
        tables = [
            row[0] for row in store._execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        ]
        assert sorted(tables) == ["counts", "evaluations", "ingests", "matrices"]
        for table in tables:
            columns = [
                (row[1], row[2], row[3], row[5]) for row in store._execute(
                    f"PRAGMA table_info({table})"
                )
            ]
            assert columns == [
                ("key", "TEXT", 0, 1),
                ("payload", "BLOB", 1, 0),
                ("digest", "TEXT", 1, 0),
                ("created", "REAL", 1, 0),
                ("last_used", "REAL", 1, 0),
            ], table
