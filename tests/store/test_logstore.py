"""LogStore durability: verified rows, corruption quarantine, LRU bound."""

import sqlite3

import pytest

from repro.exceptions import StoreError
from repro.obs import MetricsRegistry, Observer
from repro.store.logstore import (
    LogStore,
    case_digest,
    counts_content_key,
    file_digest,
    ingest_key,
)


def record(trace_count=3, name="demo"):
    return {
        "trace_count": trace_count,
        "activity_counts": {"a": trace_count},
        "pair_counts": {("a", "b"): 1},
        "case_digests": [case_digest("c0")],
        "log_name": name,
    }


def ingest_record(counts_key="ck"):
    return {
        "byte_count": 120,
        "prefix_digest": "prefix",
        "header": "case_id,activity,timestamp\n",
        "counts_key": counts_key,
    }


@pytest.fixture()
def store(tmp_path):
    store = LogStore(tmp_path / "store.db")
    yield store
    store.close()


class TestKeys:
    def test_file_digest_streams_and_limits(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"abcdef")
        assert file_digest(path) == file_digest(path)
        assert file_digest(path, limit=3) != file_digest(path)
        prefix = tmp_path / "prefix.bin"
        prefix.write_bytes(b"abc")
        assert file_digest(path, limit=3) == file_digest(prefix)

    def test_case_digest_distinguishes_none_from_strings(self):
        assert case_digest(None) != case_digest("")
        assert case_digest("c0") != case_digest("c1")
        assert len(case_digest("c0")) == 8

    def test_counts_key_sensitive_to_every_input(self):
        base = counts_content_key("d", "csv", "raise")
        assert counts_content_key("e", "csv", "raise") != base
        assert counts_content_key("d", "xes", "raise") != base
        assert counts_content_key("d", "csv", "repair") != base

    def test_ingest_key_resolves_path(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("case_id,activity,timestamp\n")
        dotted = tmp_path / "sub" / ".." / "log.csv"
        assert ingest_key(path, "csv", "raise") == ingest_key(dotted, "csv", "raise")


class TestRoundTrips:
    def test_counts_round_trip_and_counters(self, store):
        key = counts_content_key("digest", "csv", "raise")
        assert store.get_counts(key) is None
        store.put_counts(key, record())
        value = store.get_counts(key)
        assert value["trace_count"] == 3
        assert value["pair_counts"] == {("a", "b"): 1}
        assert (store.hits, store.misses) == (1, 1)

    def test_ingest_round_trip(self, store, tmp_path):
        key = ingest_key(tmp_path / "log.csv", "csv", "raise")
        assert store.get_ingest(key) is None
        store.put_ingest(key, ingest_record())
        assert store.get_ingest(key) == ingest_record()

    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "store.db"
        first = LogStore(path)
        first.put_counts("k", record())
        first.close()
        second = LogStore(path)
        assert second.get_counts("k")["trace_count"] == 3
        second.close()


class TestCorruption:
    def test_garbage_database_set_aside_and_recreated(self, tmp_path):
        path = tmp_path / "store.db"
        path.write_bytes(b"this is not a sqlite database at all\x00\x01")
        store = LogStore(path)
        try:
            assert store.get_counts("k") is None
            store.put_counts("k", record())
            assert store.get_counts("k")["trace_count"] == 3
            assert path.with_name("store.db.corrupt").exists()
        finally:
            store.close()

    def test_schema_version_mismatch_rebuilds(self, tmp_path):
        # 99 is a store of an unknown release; 2 is the release that kept
        # an `events` table of trace rows beside the counts.
        for version in (99, 2):
            path = tmp_path / f"store-{version}.db"
            connection = sqlite3.connect(path)
            connection.execute(f"PRAGMA user_version = {version}")
            connection.execute(
                "CREATE TABLE counts (key TEXT PRIMARY KEY, payload BLOB NOT NULL,"
                " digest TEXT NOT NULL, created REAL NOT NULL,"
                " last_used REAL NOT NULL)"
            )
            connection.execute(
                "CREATE TABLE events (key TEXT, trace_id INTEGER, "
                "pos INTEGER, activity TEXT)"
            )
            connection.commit()
            connection.close()
            store = LogStore(path)
            try:
                assert store.get_counts("k") is None
                store.put_counts("k", record())
                assert store.get_counts("k") is not None
                tables = {
                    row[0] for row in store._execute(
                        "SELECT name FROM sqlite_master WHERE type = 'table'"
                    )
                }
                assert "events" not in tables
            finally:
                store.close()
            assert path.with_name(path.name + ".corrupt").exists()


class TestEviction:
    def test_lru_bound_drops_oldest(self, tmp_path):
        registry = MetricsRegistry()
        store = LogStore(
            tmp_path / "store.db", max_entries=3,
            observer=Observer(metrics=registry),
        )
        try:
            for i in range(3):
                store.put_counts(f"k{i}", record(trace_count=i + 1))
            store.get_counts("k0")  # touch: k0 becomes most recent
            store.put_counts("k3", record(trace_count=9))
            assert store.get_counts("k0") is not None
            assert store.get_counts("k1") is None  # the true LRU victim
            assert store.get_counts("k3") is not None
            assert "store_evictions_total 1" in registry.to_prometheus_text()
        finally:
            store.close()

    def test_unbounded_store_keeps_everything(self, tmp_path):
        store = LogStore(tmp_path / "store.db", max_entries=None)
        try:
            for i in range(20):
                store.put_counts(f"k{i}", record())
            assert all(store.get_counts(f"k{i}") for i in range(20))
        finally:
            store.close()

    def test_invalid_max_entries_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="max_entries"):
            LogStore(tmp_path / "store.db", max_entries=0)

    def test_tables_evict_independently(self, tmp_path):
        store = LogStore(tmp_path / "store.db", max_entries=2)
        try:
            for i in range(2):
                store.put_counts(f"c{i}", record())
                store.put_ingest(f"i{i}", ingest_record(f"c{i}"))
            assert all(store.get_counts(f"c{i}") for i in range(2))
            assert all(store.get_ingest(f"i{i}") for i in range(2))
        finally:
            store.close()


def _hammer_store(path, worker_id, rounds, barrier):
    """Child-process body: interleaved writes/reads on one shared key."""
    store = LogStore(path, max_entries=None)
    try:
        barrier.wait(timeout=30)
        for i in range(rounds):
            store.put_counts("shared", record(trace_count=worker_id + 1))
            store.get_counts("shared")
            store.put_counts(f"w{worker_id}-{i}", record())
    finally:
        store.close()


class TestConcurrentAccess:
    def test_two_writers_never_corrupt_the_database(self, tmp_path):
        # WAL mode + busy-timeout + the lock-retry loop in _execute:
        # concurrent writers serialize on the SQLite lock instead of
        # tripping the corruption quarantine (a transient "database is
        # locked" must NEVER set a shared database aside).
        import multiprocessing

        context = multiprocessing.get_context("fork")
        path = tmp_path / "store.db"
        LogStore(path).close()  # create the schema up front
        barrier = context.Barrier(2)
        workers = [
            context.Process(
                target=_hammer_store, args=(path, worker_id, 25, barrier)
            )
            for worker_id in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        # No set-aside happened and every row is intact.
        assert not path.with_name("store.db.corrupt").exists()
        store = LogStore(path)
        try:
            shared = store.get_counts("shared")
            assert shared is not None
            assert shared["trace_count"] in (1, 2)  # one writer's value
            for worker_id in range(2):
                for i in range(25):
                    assert store.get_counts(f"w{worker_id}-{i}") is not None
        finally:
            store.close()

    def test_threads_sharing_one_store_object(self, tmp_path):
        # The serve daemon answers from a thread pool sharing one store
        # object: check_same_thread=False plus the internal RLock must
        # keep whole get/put sequences atomic across threads.
        import threading

        path = tmp_path / "store.db"
        store = LogStore(path, max_entries=None)
        barrier = threading.Barrier(4)
        failures: list[BaseException] = []

        def hammer(worker_id):
            try:
                barrier.wait(timeout=30)
                for i in range(25):
                    store.put_counts("shared", record(trace_count=worker_id + 1))
                    assert store.get_counts("shared") is not None
                    store.put_counts(f"t{worker_id}-{i}", record())
            except BaseException as error:  # noqa: BLE001 - surfaced below
                failures.append(error)

        threads = [
            threading.Thread(target=hammer, args=(worker_id,))
            for worker_id in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not failures
        assert not path.with_name("store.db.corrupt").exists()
        try:
            shared = store.get_counts("shared")
            assert shared is not None
            assert shared["trace_count"] in (1, 2, 3, 4)
            for worker_id in range(4):
                for i in range(25):
                    assert store.get_counts(f"t{worker_id}-{i}") is not None
        finally:
            store.close()

    def test_threads_with_per_thread_stores_on_one_path(self, tmp_path):
        # The two-process hammer, re-run with threads and one store
        # object per thread: WAL + busy-timeout + lock-retry serialize
        # the writers exactly as they do across processes.
        import threading

        path = tmp_path / "store.db"
        LogStore(path).close()  # create the schema up front
        barrier = threading.Barrier(2)
        failures: list[BaseException] = []

        def hammer(worker_id):
            try:
                _hammer_store(path, worker_id, 25, barrier)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                failures.append(error)

        threads = [
            threading.Thread(target=hammer, args=(worker_id,))
            for worker_id in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not failures
        assert not path.with_name("store.db.corrupt").exists()
        store = LogStore(path)
        try:
            shared = store.get_counts("shared")
            assert shared is not None
            assert shared["trace_count"] in (1, 2)
            for worker_id in range(2):
                for i in range(25):
                    assert store.get_counts(f"w{worker_id}-{i}") is not None
        finally:
            store.close()

    @pytest.mark.parametrize("damage", ["garbage", "schema"])
    def test_set_aside_store_serves_other_threads(self, tmp_path, damage):
        # The daemon builds its store in one thread and uses it from its
        # scheduler threads.  The fresh database that replaces a set-aside
        # one must allow that too, and the set-aside copy must keep the
        # original bytes.
        import threading

        path = tmp_path / "store.db"
        if damage == "garbage":
            path.write_bytes(b"this is not a sqlite database at all\x00\x01")
        else:
            connection = sqlite3.connect(path)
            connection.execute("PRAGMA user_version = 99")
            connection.commit()
            connection.close()
        original = path.read_bytes()
        store = LogStore(path)
        try:
            store.put_counts("k", record())
            fetched = []
            reader = threading.Thread(
                target=lambda: fetched.append(store.get_counts("k"))
            )
            reader.start()
            reader.join(timeout=30)
            assert fetched and fetched[0] is not None
            assert fetched[0]["trace_count"] == 3
            assert path.with_name("store.db.corrupt").read_bytes() == original
        finally:
            store.close()
