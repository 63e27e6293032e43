"""MatchStore: matrix persistence, eviction, corruption contract."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import EMSConfig
from repro.core.ems import EMSEngine
from repro.graph.dependency import DependencyGraph
from repro.logs.log import EventLog
from repro.obs import MetricsRegistry, Observer
from repro.store.matchstore import (
    MatchStore,
    matrix_content_key,
    matrix_record,
    restore_result,
)


def make_logs():
    first = EventLog(
        [["a", "b", "c"], ["a", "c"], ["a", "b", "b", "c"]], name="first"
    )
    second = EventLog(
        [["x", "y", "z"], ["x", "z"], ["x", "y", "z", "z"]], name="second"
    )
    return first, second


def make_result(config=None):
    first, second = make_logs()
    graphs = (DependencyGraph.from_log(first), DependencyGraph.from_log(second))
    return EMSEngine(config or EMSConfig()).similarity(*graphs)


@pytest.fixture()
def store(tmp_path):
    store = MatchStore(tmp_path / "match.db")
    yield store
    store.close()


class TestMatrixKey:
    def test_deterministic(self):
        config = EMSConfig()
        assert matrix_content_key("c1", "c2", 0.0, config) == matrix_content_key(
            "c1", "c2", 0.0, config
        )

    def test_sensitive_to_each_input(self):
        config = EMSConfig()
        base = matrix_content_key("c1", "c2", 0.0, config)
        assert matrix_content_key("cX", "c2", 0.0, config) != base
        assert matrix_content_key("c1", "cX", 0.0, config) != base
        assert matrix_content_key("c1", "c2", 0.2, config) != base
        assert matrix_content_key("c1", "c2", 0.0, config, "labels") != base

    def test_order_of_logs_matters(self):
        config = EMSConfig()
        assert matrix_content_key("c1", "c2", 0.0, config) != matrix_content_key(
            "c2", "c1", 0.0, config
        )

    @pytest.mark.parametrize(
        "knob",
        [
            {"alpha": 0.7},
            {"c": 0.5},
            {"epsilon": 1e-6},
            {"max_iterations": 7},
            {"direction": "forward"},
            {"use_pruning": False},
            {"estimation_iterations": 3},
            {"dtype": "float32"},
        ],
    )
    def test_sensitive_to_config_knobs(self, knob):
        base = matrix_content_key("c1", "c2", 0.0, EMSConfig())
        assert matrix_content_key("c1", "c2", 0.0, EMSConfig(**knob)) != base

    #: A valid non-default value for every value-bearing EMSConfig field.
    NON_DEFAULTS = {
        "alpha": 0.7,
        "c": 0.5,
        "epsilon": 1e-6,
        "max_iterations": 7,
        "direction": "forward",
        "use_pruning": False,
        "estimation_iterations": 3,
        "use_edge_weights": False,
        "dtype": "float32",
    }

    @pytest.mark.parametrize(
        "name",
        [
            spec.name
            for spec in dataclasses.fields(EMSConfig)
            if spec.name != "label_cache_entries"
        ],
    )
    def test_every_value_bearing_field_keys(self, name):
        # Every field but the label-cache size can change a similarity
        # value, so leaving one out of the key would serve a stored
        # matrix computed under a different value.
        assert name in self.NON_DEFAULTS, f"add a non-default value for {name!r}"
        base = matrix_content_key("c1", "c2", 0.0, EMSConfig())
        config = EMSConfig(**{name: self.NON_DEFAULTS[name]})
        assert matrix_content_key("c1", "c2", 0.0, config) != base


class TestMatrixRoundTrip:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_bitwise_round_trip(self, store, dtype):
        config = EMSConfig(dtype=dtype)
        result = make_result(config)
        record = matrix_record(result, config, ("first", "second"))
        store.put_matrix("k", record)
        loaded = store.get_matrix("k")
        assert loaded is not None
        restored = restore_result(loaded)
        assert restored.matrix.rows == result.matrix.rows
        assert restored.matrix.cols == result.matrix.cols
        np.testing.assert_array_equal(
            restored.matrix.values, result.matrix.values
        )
        for name, matrix in result.directional.items():
            np.testing.assert_array_equal(
                restored.directional[name].values, matrix.values
            )
        assert restored.iterations == result.iterations
        assert restored.converged == result.converged

    def test_float32_storage_is_compact(self, store):
        config32 = EMSConfig(dtype="float32")
        record = matrix_record(make_result(config32), config32, ("a", "b"))
        for sub in record["directional"].values():
            assert sub["values"].dtype == np.float32

    def test_hit_and_miss_counters(self, tmp_path):
        registry = MetricsRegistry()
        store = MatchStore(
            tmp_path / "match.db", observer=Observer(metrics=registry)
        )
        try:
            assert store.get_matrix("absent") is None
            config = EMSConfig()
            store.put_matrix(
                "k", matrix_record(make_result(), config, ("a", "b"))
            )
            assert store.get_matrix("k") is not None
            text = registry.to_prometheus_text()
            assert "match_store_misses_total 1" in text
            assert "match_store_hits_total 1" in text
        finally:
            store.close()


class TestCorruptMatrixDegrades:
    def test_malformed_record_is_a_counted_miss(self, tmp_path):
        registry = MetricsRegistry()
        store = MatchStore(
            tmp_path / "match.db", observer=Observer(metrics=registry)
        )
        try:
            store.put_matrix("k", {"not": "a matrix record"})
            assert store.get_matrix("k") is None
            text = registry.to_prometheus_text()
            assert "match_store_corrupt_total 1" in text
            assert "match_store_misses_total 1" in text
            # The poisoned row is gone: the next lookup is a plain miss.
            assert store.get_matrix("k") is None
        finally:
            store.close()


class TestEvictionCascade:
    """LRU evictions and the matrix table's own eviction counter."""

    def counts_record(self, i):
        return {
            "trace_count": 1,
            "activity_counts": {"a": 1},
            "pair_counts": {},
            "case_digests": [],
            "log_name": f"log-{i}",
        }

    def test_matrix_eviction_counts_separately(self, tmp_path):
        registry = MetricsRegistry()
        store = MatchStore(
            tmp_path / "match.db", max_entries=1,
            observer=Observer(metrics=registry),
        )
        try:
            config = EMSConfig()
            record = matrix_record(make_result(), config, ("a", "b"))
            store.put_matrix("m0", record)
            store.put_matrix("m1", record)
            assert store.get_matrix("m0") is None
            assert "match_store_evictions_total 1" in registry.to_prometheus_text()
        finally:
            store.close()


class TestInteroperability:
    def test_logstore_database_opens_as_matchstore(self, tmp_path):
        from repro.store.logstore import LogStore

        path = tmp_path / "store.db"
        plain = LogStore(path)
        plain.put_counts("k", TestEvictionCascade().counts_record(0))
        plain.close()
        upgraded = MatchStore(path)
        try:
            assert upgraded.get_counts("k") is not None
            assert upgraded.get_matrix("m") is None  # table created lazily
        finally:
            upgraded.close()
