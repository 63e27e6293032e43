"""Stored composite evaluations: keys, durability, LRU, end-to-end reuse."""

import sqlite3

import numpy as np
import pytest

from repro.core.composite import CompositeMatcher
from repro.core.config import EMSConfig
from repro.core.incremental import CandidateEvaluation
from repro.exceptions import StoreError
from repro.logs.log import EventLog
from repro.obs import MetricsRegistry, Observer
from repro.runtime.evalcache import candidate_key, search_content_key
from repro.store import MatchStore


def _content_key(first=None, second=None, config=None, knobs=None):
    return search_content_key(
        first if first is not None else EventLog([["a", "b"]]),
        second if second is not None else EventLog([["x", "y"]]),
        config if config is not None else {"alpha": 1.0},
        knobs if knobs is not None else {"delta": 0.01},
    )


class TestContentKey:
    def test_stable_across_calls(self):
        assert _content_key() == _content_key()

    def test_sensitive_to_log_content(self):
        assert _content_key(first=EventLog([["a", "c"]])) != _content_key()
        assert _content_key(second=EventLog([["x", "y"], ["x"]])) != _content_key()

    def test_sensitive_to_config_and_knobs(self):
        assert _content_key(config={"alpha": 0.5}) != _content_key()
        assert _content_key(knobs={"delta": 0.02}) != _content_key()

    def test_insensitive_to_mapping_order(self):
        assert (
            _content_key(config={"alpha": 1.0, "c": 0.8})
            == _content_key(config={"c": 0.8, "alpha": 1.0})
        )


def _candidate_key(base="base", history=((0, ("a", "b")),), side=1,
                   run=("x", "y"), abort_below=0.25):
    return candidate_key(base, history, side, run, abort_below)


class TestKeys:
    def test_stable_across_calls(self):
        assert _candidate_key() == _candidate_key()

    def test_sensitive_to_every_component(self):
        assert _candidate_key(base="other") != _candidate_key()
        assert _candidate_key(history=()) != _candidate_key()
        assert _candidate_key(side=0) != _candidate_key()
        assert _candidate_key(run=("x", "z")) != _candidate_key()
        assert _candidate_key(abort_below=0.250001) != _candidate_key()

    def test_abort_below_round_trips_exactly(self):
        # repr() preserves the full float, so nearly-equal incumbents
        # that differ in the last ulp get distinct keys.
        value = 0.1 + 0.2
        assert _candidate_key(abort_below=value) == _candidate_key(
            abort_below=float(repr(value))
        )
        assert _candidate_key(abort_below=value) != _candidate_key(
            abort_below=0.3
        )


def _row_count(store):
    return store._execute("SELECT COUNT(*) FROM evaluations").fetchone()[0]


def _damage_row(store, key, mutilate):
    connection = sqlite3.connect(store.path)
    (payload,), = connection.execute(
        "SELECT payload FROM evaluations WHERE key = ?", (key,)
    ).fetchall()
    connection.execute(
        "UPDATE evaluations SET payload = ? WHERE key = ?", (mutilate(payload), key)
    )
    connection.commit()
    connection.close()


#: Storable values: Bd-aborted candidate evaluations.
EVALUATIONS = [
    CandidateEvaluation(outcome=None, pairs_fixed=3, pair_updates=17),
    CandidateEvaluation(outcome=None, pairs_fixed=0, pair_updates=5),
]


class TestDurability:
    """The ``evaluations`` table of the match store, under its own counters."""

    def _store(self, tmp_path, observer=None):
        store = MatchStore(tmp_path / "match.db", observer=observer)
        key = _candidate_key()
        store.put_evaluation(key, EVALUATIONS[0])
        return store, key

    def test_round_trip(self, tmp_path):
        observer = Observer(metrics=MetricsRegistry())
        store, key = self._store(tmp_path, observer)
        assert store.get_evaluation(key) == EVALUATIONS[0]
        assert store.hits == 1 and store.misses == 0
        assert "eval_cache_hits_total 1" in observer.metrics.to_prometheus_text()
        store.close()

    def test_missing_entry_is_silent_miss(self, tmp_path):
        observer = Observer(metrics=MetricsRegistry())
        store = MatchStore(tmp_path / "match.db", observer=observer)
        assert store.get_evaluation(_candidate_key()) is None
        text = observer.metrics.to_prometheus_text()
        assert "eval_cache_misses_total 1" in text
        # Absence is the normal first run, not corruption.
        assert "eval_cache_corrupt_total" not in text
        store.close()

    @pytest.mark.parametrize("mutilate", [
        lambda raw: raw[: len(raw) // 2],                  # torn write
        lambda raw: raw[:-1] + bytes([raw[-1] ^ 0xFF]),    # flipped bit
        lambda raw: bytes(reversed(raw)),                  # garbage
    ])
    def test_mutilated_entry_degrades_to_cold(self, tmp_path, mutilate, caplog):
        observer = Observer(metrics=MetricsRegistry())
        store, key = self._store(tmp_path, observer)
        _damage_row(store, key, mutilate)
        with caplog.at_level("WARNING"):
            assert store.get_evaluation(key) is None
        assert any("computing cold" in r.message for r in caplog.records)
        text = observer.metrics.to_prometheus_text()
        assert "eval_cache_corrupt_total 1" in text
        assert "eval_cache_misses_total 1" in text
        # The bad row was removed so it cannot trip future runs.
        assert _row_count(store) == 0
        store.close()

    def test_store_leaves_no_tmp_litter(self, tmp_path):
        store, key = self._store(tmp_path)
        store.put_evaluation(key, EVALUATIONS[1])  # overwrite
        assert _row_count(store) == 1
        assert store.get_evaluation(key) == EVALUATIONS[1]
        store.close()
        assert {p.name for p in tmp_path.iterdir()} <= {
            "match.db", "match.db-wal", "match.db-shm"
        }


class TestEviction:
    def test_lru_bound_drops_oldest(self, tmp_path):
        observer = Observer(metrics=MetricsRegistry())
        store = MatchStore(tmp_path / "match.db", max_entries=2, observer=observer)
        keys = [_candidate_key(abort_below=float(i)) for i in range(3)]
        for key in keys:
            store.put_evaluation(key, EVALUATIONS[0])
        assert store.get_evaluation(keys[0]) is None  # evicted
        assert store.get_evaluation(keys[1]) == EVALUATIONS[0]
        assert store.get_evaluation(keys[2]) == EVALUATIONS[0]
        assert "eval_cache_evictions_total 1" in observer.metrics.to_prometheus_text()
        store.close()

    def test_load_touches_entry_for_lru(self, tmp_path):
        store = MatchStore(tmp_path / "match.db", max_entries=2)
        keys = [_candidate_key(abort_below=float(i)) for i in range(3)]
        store.put_evaluation(keys[0], EVALUATIONS[0])
        store.put_evaluation(keys[1], EVALUATIONS[0])
        store.get_evaluation(keys[0])  # refresh: now keys[1] is the LRU row
        store.put_evaluation(keys[2], EVALUATIONS[0])
        assert store.get_evaluation(keys[1]) is None
        assert store.get_evaluation(keys[0]) == EVALUATIONS[0]
        store.close()

    def test_max_entries_validation(self, tmp_path):
        with pytest.raises(StoreError):
            MatchStore(tmp_path / "match.db", max_entries=0)
        MatchStore(tmp_path / "match.db", max_entries=None).close()  # unbounded


def _toy_logs():
    first = EventLog([["a", "b", "c"], ["a", "c", "b"], ["b", "a", "c"]] * 4,
                     name="first")
    second = EventLog(
        [["x", "y", "z", "w"], ["x", "y", "w", "z"], ["z", "x", "y", "w"]] * 4,
        name="second",
    )
    return first, second


class TestEndToEnd:
    def test_warm_run_bit_identical_and_all_hits(self, tmp_path):
        first, second = _toy_logs()
        config = EMSConfig()
        store = MatchStore(tmp_path / "match.db")

        def run(with_store):
            matcher = CompositeMatcher(
                config, delta=0.0, min_confidence=0.6, max_run_length=3,
                store=store if with_store else None,
            )
            return matcher.match(first, second)

        cold = run(True)
        misses = store.misses
        assert misses > 0 and store.hits == 0
        warm = run(True)
        assert store.hits == misses  # every evaluation reused
        assert store.misses == misses
        uncached = run(False)
        for other in (warm, uncached):
            assert other.accepted_first == cold.accepted_first
            assert other.accepted_second == cold.accepted_second
            assert np.array_equal(other.matrix.values, cold.matrix.values)
            assert other.stats.candidates_evaluated == cold.stats.candidates_evaluated
            assert other.stats.pairs_fixed == cold.stats.pairs_fixed
        store.close()

    def test_corrupted_store_degrades_to_cold_search(self, tmp_path):
        first, second = _toy_logs()
        config = EMSConfig()
        store = MatchStore(tmp_path / "match.db")
        matcher = CompositeMatcher(
            config, delta=0.0, min_confidence=0.6, max_run_length=3,
            store=store,
        )
        cold = matcher.match(first, second)
        connection = sqlite3.connect(store.path)
        connection.execute("UPDATE evaluations SET payload = ?", (b"garbage",))
        connection.commit()
        connection.close()
        hits = store.hits
        rerun = CompositeMatcher(
            config, delta=0.0, min_confidence=0.6, max_run_length=3,
            store=store,
        ).match(first, second)
        assert rerun.accepted_second == cold.accepted_second
        assert np.array_equal(rerun.matrix.values, cold.matrix.values)
        assert store.hits == hits  # nothing served from the mutilated rows
        store.close()
