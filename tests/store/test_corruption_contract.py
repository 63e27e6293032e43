"""One corruption contract for every persistent store.

Every table of the SQLite stores — the log store's counts and append
bookkeeping, the match store's matrices and composite evaluations —
promises the same thing: damaged data degrades to a cold recompute,
never to a wrong answer.  Each table is driven through the same list of
damage — a torn entry, a foreign entry (another format version, or data
filed under another key), a flipped bit, and an intact entry of the
wrong shape (which only the table's record check can reject) — and
must:

* answer the load with a cold miss (``None``), never a value;
* count the rejection on its corrupt and miss counters;
* drop the damaged entry, or set it aside — damage to one entry costs
  that entry alone, never the whole database;
* store and serve a fresh value afterwards.
"""

from __future__ import annotations

import pickle
import sqlite3
from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.core.config import EMSConfig
from repro.core.ems import EMSEngine
from repro.core.incremental import CandidateEvaluation
from repro.graph.dependency import DependencyGraph
from repro.logs.log import EventLog
from repro.obs import MetricsRegistry, Observer
from repro.store.logstore import LogStore, case_digest
from repro.store.matchstore import MatchStore, matrix_record

KEY = "a" * 64
OTHER_KEY = "b" * 64


# ----------------------------------------------------------------------
# Damage to one stored entry
# ----------------------------------------------------------------------
def _rewrite_payload(store, table, key, change):
    connection = sqlite3.connect(store.path)
    (payload,), = connection.execute(
        f"SELECT payload FROM {table} WHERE key = ?", (key,)
    ).fetchall()
    connection.execute(
        f"UPDATE {table} SET payload = ? WHERE key = ?", (change(payload), key)
    )
    connection.commit()
    connection.close()


def _row_torn(store, table, key):
    _rewrite_payload(store, table, key, lambda payload: payload[: len(payload) // 2])


def _row_bit_flip(store, table, key):
    _rewrite_payload(
        store, table, key, lambda payload: payload[:-1] + bytes([payload[-1] ^ 0xFF])
    )


def _row_foreign_key(store, table, key):
    # An intact row stored under another key, then moved under this key:
    # only a digest bound to the key can tell it apart.
    cursor = store._execute(f"SELECT payload FROM {table} WHERE key = ?", (key,))
    store._put(table, OTHER_KEY, pickle.loads(cursor.fetchone()[0]))
    connection = sqlite3.connect(store.path)
    connection.execute(f"DELETE FROM {table} WHERE key = ?", (key,))
    connection.execute(f"UPDATE {table} SET key = ? WHERE key = ?", (key, OTHER_KEY))
    connection.commit()
    connection.close()


def _db_foreign_format(store, table, key):
    # The SQLite stores' format magic is the schema version: the whole
    # database is replaced by one of a foreign version.
    store.close()
    for suffix in ("", "-wal", "-shm"):
        sidecar = store.path.with_name(store.path.name + suffix)
        if sidecar.exists():
            sidecar.unlink()
    connection = sqlite3.connect(store.path)
    connection.execute("PRAGMA user_version = 99")
    connection.execute(f"CREATE TABLE {table} (key TEXT, payload BLOB)")
    connection.execute(
        f"INSERT INTO {table} VALUES (?, ?)", (key, pickle.dumps("foreign"))
    )
    connection.commit()
    connection.close()


def _db_set_aside(store) -> bool:
    return store.path.with_name(store.path.name + ".corrupt").exists()


def _row_gone(store, table, key) -> bool:
    if _db_set_aside(store):
        return True
    cursor = store._execute(f"SELECT COUNT(*) FROM {table} WHERE key = ?", (key,))
    return cursor.fetchone()[0] == 0


# ----------------------------------------------------------------------
# The stores
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Subject:
    """How the contract drives one store."""

    name: str
    open: Callable[[Any, Observer], Any]
    put: Callable[[Any, str], None]
    get: Callable[[Any, str], Any]
    #: Counters every damaged load moves up by one.
    counters: tuple[str, ...]
    damage: dict[str, Callable[[Any, str], None]]
    gone: Callable[[Any, str], bool]
    #: Whether the whole database was set aside.
    set_aside: Callable[[Any], bool] = lambda store: False
    #: Further counters of a rejected entry (not of a set-aside database).
    entry_counters: tuple[str, ...] = ()


def _counts_record():
    return {
        "trace_count": 3,
        "activity_counts": {"a": 3},
        "pair_counts": {("a", "b"): 1},
        "case_digests": [case_digest("c0")],
        "log_name": "demo",
    }


def _ingest_record():
    return {
        "byte_count": 120,
        "prefix_digest": "0" * 64,
        "header": "case_id,activity,timestamp\n",
        "counts_key": OTHER_KEY,
    }


def _matrix_record():
    first = EventLog([["a", "b", "c"], ["a", "c"]], name="first")
    second = EventLog([["x", "y", "z"], ["x", "z"]], name="second")
    result = EMSEngine(EMSConfig()).similarity(
        DependencyGraph.from_log(first), DependencyGraph.from_log(second)
    )
    return matrix_record(result, EMSConfig(), ("first", "second"))


def _row_damage(table, malformed):
    damage = {
        name: (lambda store, key, fn=fn: fn(store, table, key))
        for name, fn in (
            ("torn", _row_torn),
            ("foreign-magic", _db_foreign_format),
            ("foreign-key", _row_foreign_key),
            ("bit-flip", _row_bit_flip),
        )
    }
    # A digest-valid row whose record fails the store's record check.
    damage["wrong-shape"] = lambda store, key: store._put(table, key, malformed())
    return damage


def _short_directional_record():
    record = _matrix_record()
    record["directional"] = {
        name: {**sub, "values": sub["values"][:1]}
        for name, sub in record["directional"].items()
    }
    return record


SUBJECTS = [
    Subject(
        name="LogStore",
        open=lambda path, observer: LogStore(path / "log.db", observer=observer),
        put=lambda store, key: store.put_counts(key, _counts_record()),
        get=lambda store, key: store.get_counts(key),
        counters=("store_corrupt_total", "store_misses_total"),
        damage=_row_damage("counts", lambda: {"trace_count": 1}),
        gone=lambda store, key: _row_gone(store, "counts", key),
        set_aside=_db_set_aside,
    ),
    Subject(
        name="LogStore.ingests",
        open=lambda path, observer: LogStore(path / "log.db", observer=observer),
        put=lambda store, key: store.put_ingest(key, _ingest_record()),
        get=lambda store, key: store.get_ingest(key),
        counters=("store_corrupt_total", "store_misses_total"),
        damage=_row_damage("ingests", lambda: {"byte_count": 120}),
        gone=lambda store, key: _row_gone(store, "ingests", key),
        set_aside=_db_set_aside,
    ),
    Subject(
        name="MatchStore",
        open=lambda path, observer: MatchStore(path / "match.db", observer=observer),
        put=lambda store, key: store.put_matrix(key, _matrix_record()),
        get=lambda store, key: store.get_matrix(key),
        counters=(
            "store_corrupt_total", "store_misses_total",
            "match_store_misses_total",
        ),
        damage=_row_damage("matrices", _short_directional_record),
        gone=lambda store, key: _row_gone(store, "matrices", key),
        set_aside=_db_set_aside,
        entry_counters=("match_store_corrupt_total",),
    ),
    # The composite search's evaluation cache: the match store's
    # ``evaluations`` table.
    Subject(
        name="EvaluationCache",
        open=lambda path, observer: MatchStore(path / "match.db", observer=observer),
        put=lambda store, key: store.put_evaluation(
            key, CandidateEvaluation(outcome=None, pairs_fixed=3)
        ),
        get=lambda store, key: store.get_evaluation(key),
        counters=(
            "store_corrupt_total", "store_misses_total",
            "eval_cache_misses_total",
        ),
        # An intact row holding ``None``: neither an evaluation nor a
        # discovery list.
        damage=_row_damage("evaluations", lambda: None),
        gone=lambda store, key: _row_gone(store, "evaluations", key),
        set_aside=_db_set_aside,
        entry_counters=("eval_cache_corrupt_total",),
    ),
]

DAMAGE = ("torn", "foreign-magic", "foreign-key", "bit-flip", "wrong-shape")
#: The damage that replaces a SQLite store's whole database (its format
#: magic is the schema version); every other kind damages one entry.
WHOLE_STORE = "foreign-magic"


def _counter(registry: MetricsRegistry, name: str) -> float:
    metric = registry.get(name)
    return 0.0 if metric is None else metric.value


@pytest.fixture(params=SUBJECTS, ids=lambda subject: subject.name)
def subject(request):
    return request.param


@pytest.mark.parametrize("damage", DAMAGE)
def test_damage_is_a_counted_cold_miss(subject, damage, tmp_path):
    registry = MetricsRegistry()
    store = subject.open(tmp_path, Observer(metrics=registry))
    counters = subject.counters
    if damage != WHOLE_STORE:
        counters += subject.entry_counters
    try:
        subject.put(store, KEY)
        assert subject.get(store, KEY) is not None
        before = {name: _counter(registry, name) for name in counters}
        subject.damage[damage](store, KEY)
        assert subject.get(store, KEY) is None
        for name in counters:
            assert _counter(registry, name) == before[name] + 1, name
        assert subject.gone(store, KEY)
        if damage != WHOLE_STORE:
            assert not subject.set_aside(store)
        # The store heals: a fresh value is stored and served again.
        subject.put(store, KEY)
        assert subject.get(store, KEY) is not None
    finally:
        store.close()
