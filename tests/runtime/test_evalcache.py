"""Persistent evaluation cache: keys, durability, LRU, end-to-end reuse."""

import numpy as np
import pytest

from repro.core.composite import CompositeMatcher
from repro.core.config import EMSConfig
from repro.logs.log import EventLog
from repro.obs import MetricsRegistry, Observer
from repro.runtime.evalcache import (
    EvaluationCache,
    candidate_key,
    discovery_key,
    search_content_key,
)


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

    def test_discovery_keys_disjoint_from_candidate_keys(self):
        assert discovery_key("base", (), 0) != discovery_key("base", (), 1)
        assert discovery_key("base", ((0, ("a", "b")),), 0) != discovery_key(
            "base", (), 0
        )
        assert discovery_key("base", (), 0) != _candidate_key(
            base="base", history=(), side=0
        )


class TestDurability:
    def _store(self, tmp_path, observer=None):
        cache = EvaluationCache(tmp_path, observer=observer)
        key = _candidate_key()
        cache.store(key, {"payload": [1, 2, 3]})
        return cache, key

    def test_round_trip(self, tmp_path):
        cache, key = self._store(tmp_path)
        assert cache.load(key) == {"payload": [1, 2, 3]}
        assert cache.hits == 1 and cache.misses == 0

    def test_missing_entry_is_silent_miss(self, tmp_path):
        observer = Observer(metrics=MetricsRegistry())
        cache = EvaluationCache(tmp_path, observer=observer)
        assert cache.load(_candidate_key()) is None
        text = observer.metrics.to_prometheus_text()
        assert "eval_cache_misses_total 1" in text
        # Absence is the normal first run, not corruption.
        assert "eval_cache_corrupt_total" not in text

    @pytest.mark.parametrize("mutilate", [
        lambda raw: raw[: len(raw) // 2],                      # torn write
        lambda raw: raw.replace(b"EMSEVAL2", b"EMSEVAL9", 1),  # version bump
        lambda raw: bytes(reversed(raw)),                      # garbage
    ])
    def test_mutilated_entry_degrades_to_cold(self, tmp_path, mutilate, caplog):
        observer = Observer(metrics=MetricsRegistry())
        cache, key = self._store(tmp_path, observer)
        path = cache.path_for(key)
        path.write_bytes(mutilate(path.read_bytes()))
        with caplog.at_level("WARNING"):
            assert cache.load(key) is None
        assert any("evaluating cold" in r.message for r in caplog.records)
        text = observer.metrics.to_prometheus_text()
        assert "eval_cache_corrupt_total 1" in text
        assert "eval_cache_misses_total 1" in text
        # The bad entry was removed so it cannot trip future runs.
        assert not path.exists()

    def test_store_leaves_no_tmp_litter(self, tmp_path):
        cache, key = self._store(tmp_path)
        cache.store(key, {"payload": [4]})  # overwrite
        assert [p.name for p in tmp_path.iterdir()] == [cache.path_for(key).name]
        assert cache.load(key) == {"payload": [4]}


class TestEviction:
    def test_lru_bound_drops_oldest(self, tmp_path):
        import os

        observer = Observer(metrics=MetricsRegistry())
        cache = EvaluationCache(tmp_path, max_entries=2, observer=observer)
        keys = [_candidate_key(abort_below=float(i)) for i in range(3)]
        for i, key in enumerate(keys):
            cache.store(key, i)
            # Distinct mtimes even on coarse filesystem clocks.
            os.utime(cache.path_for(key), (i, i))
        assert cache.load(keys[0]) is None  # evicted
        assert cache.load(keys[1]) == 1
        assert cache.load(keys[2]) == 2
        assert "eval_cache_evictions_total 1" in observer.metrics.to_prometheus_text()

    def test_load_touches_entry_for_lru(self, tmp_path):
        import os

        cache = EvaluationCache(tmp_path, max_entries=2)
        keys = [_candidate_key(abort_below=float(i)) for i in range(3)]
        cache.store(keys[0], 0)
        cache.store(keys[1], 1)
        for i, key in enumerate(keys[:2]):
            os.utime(cache.path_for(key), (i, i))
        cache.load(keys[0])  # refresh: now keys[1] is the LRU entry
        cache.store(keys[2], 2)
        assert cache.load(keys[1]) is None
        assert cache.load(keys[0]) == 0

    def test_max_entries_validation(self, tmp_path):
        with pytest.raises(ValueError):
            EvaluationCache(tmp_path, max_entries=0)
        EvaluationCache(tmp_path, max_entries=None)  # unbounded is fine


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
        cache = EvaluationCache(tmp_path)

        def run(with_cache):
            matcher = CompositeMatcher(
                config, delta=0.0, min_confidence=0.6, max_run_length=3,
                eval_cache=cache if with_cache else None,
            )
            return matcher.match(first, second)

        cold = run(True)
        misses = cache.misses
        assert misses > 0 and cache.hits == 0
        warm = run(True)
        assert cache.hits == misses  # every evaluation + discovery reused
        assert cache.misses == misses
        uncached = run(False)
        for other in (warm, uncached):
            assert other.accepted_first == cold.accepted_first
            assert other.accepted_second == cold.accepted_second
            assert np.array_equal(other.matrix.values, cold.matrix.values)
            assert other.stats.candidates_evaluated == cold.stats.candidates_evaluated
            assert other.stats.pairs_fixed == cold.stats.pairs_fixed

    def test_corrupted_store_degrades_to_cold_search(self, tmp_path):
        first, second = _toy_logs()
        config = EMSConfig()
        cache = EvaluationCache(tmp_path)
        matcher = CompositeMatcher(
            config, delta=0.0, min_confidence=0.6, max_run_length=3,
            eval_cache=cache,
        )
        cold = matcher.match(first, second)
        for path in tmp_path.glob("eval-*.pkl"):
            path.write_bytes(b"EMSEVAL9 junk junk\ngarbage")
        rerun = CompositeMatcher(
            config, delta=0.0, min_confidence=0.6, max_run_length=3,
            eval_cache=cache,
        ).match(first, second)
        assert rerun.accepted_second == cold.accepted_second
        assert np.array_equal(rerun.matrix.values, cold.matrix.values)
        assert cache.hits == 0  # nothing served from the mutilated store
