"""Checkpoint format, content keys, corruption handling, interrupts."""

import dataclasses
import os
import signal

import pytest

from repro.core.composite import CompositeStats
from repro.exceptions import SearchInterrupted
from repro.logs.log import EventLog
from repro.obs import MetricsRegistry, Observer
from repro.runtime.checkpoint import (
    CheckpointManager,
    InterruptGuard,
    SearchSnapshot,
    search_content_key,
)
from repro.runtime.faults import FaultPlan, FaultSpec


def _key(first=None, second=None, config=None, knobs=None):
    return search_content_key(
        first if first is not None else EventLog([["a", "b"]]),
        second if second is not None else EventLog([["x", "y"]]),
        config if config is not None else {"alpha": 1.0},
        knobs if knobs is not None else {"delta": 0.01},
    )


def _snapshot(key, rounds=1):
    return SearchSnapshot(
        key=key,
        rounds=rounds,
        history=((0, ("a", "b")),),
        stats=CompositeStats(rounds=rounds),
        current={"matrix": [1.0, 2.0]},
    )


class TestContentKey:
    def test_stable_across_calls(self):
        assert _key() == _key()

    def test_sensitive_to_log_content(self):
        assert _key(first=EventLog([["a", "c"]])) != _key()
        assert _key(second=EventLog([["x", "y"], ["x"]])) != _key()

    def test_sensitive_to_config_and_knobs(self):
        assert _key(config={"alpha": 0.5}) != _key()
        assert _key(knobs={"delta": 0.02}) != _key()

    def test_insensitive_to_mapping_order(self):
        assert (
            _key(config={"alpha": 1.0, "c": 0.8})
            == _key(config={"c": 0.8, "alpha": 1.0})
        )


class TestCheckpointManager:
    def test_round_trip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        key = _key()
        path = manager.save(_snapshot(key, rounds=2))
        assert path == manager.path_for(key)
        assert path.exists()
        loaded = manager.load(key)
        assert loaded is not None
        assert loaded.key == key
        assert loaded.rounds == 2
        assert loaded.history == ((0, ("a", "b")),)
        assert loaded.stats == CompositeStats(rounds=2)
        assert manager.writes == 1

    def test_missing_checkpoint_is_silent_cold_start(self, tmp_path):
        observer = Observer(metrics=MetricsRegistry())
        manager = CheckpointManager(tmp_path, observer=observer)
        assert manager.load(_key()) is None
        # No file at all is the normal first run, not corruption.
        assert "checkpoint_corrupt_total" not in observer.metrics.to_prometheus_text()

    def test_cadence(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=3)
        assert [r for r in range(1, 10) if manager.due(r)] == [3, 6, 9]
        assert CheckpointManager(tmp_path).due(1)
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, every=0)

    @pytest.mark.parametrize("mutilate", [
        lambda raw: raw[: len(raw) // 2],                      # torn write
        lambda raw: raw.replace(b"EMSCKPT4", b"EMSCKPT9", 1),  # foreign magic
        lambda raw: bytes(reversed(raw)),                      # garbage
    ])
    def test_mutilated_file_degrades_to_cold_start(self, tmp_path, mutilate):
        observer = Observer(metrics=MetricsRegistry())
        manager = CheckpointManager(tmp_path, observer=observer)
        key = _key()
        path = manager.save(_snapshot(key))
        path.write_bytes(mutilate(path.read_bytes()))
        assert manager.load(key) is None
        assert "checkpoint_corrupt_total 1" in observer.metrics.to_prometheus_text()

    def test_payload_bit_flip_detected_by_digest(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        key = _key()
        path = manager.save(_snapshot(key))
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert manager.load(key) is None

    def test_key_mismatch_never_resumes_foreign_state(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        key, other = _key(), _key(config={"alpha": 0.25})
        # Force a filename collision so only the in-file key guards us.
        manager.save(_snapshot(key))
        os.replace(manager.path_for(key), manager.path_for(other))
        assert manager.load(other) is None

    def test_injected_write_corruption_caught_on_load(self, tmp_path):
        observer = Observer(metrics=MetricsRegistry())
        plan = FaultPlan(specs=(
            FaultSpec(site="checkpoint.write", kind="corrupt", round=1),
        ))
        manager = CheckpointManager(tmp_path, observer=observer, faults=plan)
        key = _key()
        manager.save(_snapshot(key, rounds=1))
        assert manager.load(key) is None
        assert "checkpoint_corrupt_total 1" in observer.metrics.to_prometheus_text()
        # A round the plan does not target writes a clean checkpoint.
        manager.save(_snapshot(key, rounds=2))
        assert manager.load(key).rounds == 2

    def test_save_overwrites_previous_snapshot(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        key = _key()
        manager.save(_snapshot(key, rounds=1))
        manager.save(_snapshot(key, rounds=2))
        assert manager.load(key).rounds == 2
        assert len(list(tmp_path.iterdir())) == 1  # no tmp litter

    def test_counters_emitted(self, tmp_path):
        observer = Observer(metrics=MetricsRegistry())
        manager = CheckpointManager(tmp_path, observer=observer)
        key = _key()
        manager.save(_snapshot(key))
        manager.load(key)
        text = observer.metrics.to_prometheus_text()
        assert "checkpoint_writes_total 1" in text
        assert "checkpoint_resumes_total 1" in text


class TestInterruptGuard:
    def test_trip_and_check(self):
        guard = InterruptGuard(signals=())
        guard.check()  # not tripped: no-op
        guard.trip("fault:search.round[2]")
        with pytest.raises(SearchInterrupted) as excinfo:
            guard.check()
        assert excinfo.value.signal_name == "fault:search.round[2]"

    def test_real_signal_sets_flag_once(self):
        guard = InterruptGuard(signals=(signal.SIGUSR1,))
        with guard:
            os.kill(os.getpid(), signal.SIGUSR1)
            assert guard.interrupted
            assert guard.signal_name == "SIGUSR1"
            # The handler restored the previous disposition for a
            # second, harder signal.
            assert signal.getsignal(signal.SIGUSR1) != guard._handle
        assert signal.getsignal(signal.SIGUSR1) == signal.SIG_DFL

    def test_exit_restores_previous_handler(self):
        marker = lambda signum, frame: None  # noqa: E731
        previous = signal.signal(signal.SIGUSR1, marker)
        try:
            with InterruptGuard(signals=(signal.SIGUSR1,)):
                assert signal.getsignal(signal.SIGUSR1) != marker
            assert signal.getsignal(signal.SIGUSR1) == marker
        finally:
            signal.signal(signal.SIGUSR1, previous)

    def test_snapshot_stats_are_a_copy(self, tmp_path):
        # Mutating live stats after a save must not leak into the file.
        manager = CheckpointManager(tmp_path)
        key = _key()
        stats = CompositeStats(rounds=1)
        manager.save(SearchSnapshot(
            key=key, rounds=1, history=(),
            stats=dataclasses.replace(stats), current=None,
        ))
        stats.rounds = 99
        assert manager.load(key).stats.rounds == 1
