"""Property suite: interrupt + re-run over the stored evaluations == one run.

The durable-execution contract: a composite search interrupted at *any*
round boundary and re-run over the same
:class:`~repro.store.MatchStore` must finish with bit-identical
correspondences, similarity values, stats counters, and runtime-report
structure — as if the interruption never happened.  The re-run replays
every round the interrupted run finished from the store, so its misses
fall only on rounds at or after the interrupt.  The interrupt is injected
deterministically through the fault harness (``search.round``/
``interrupt``), which shares the code path a real SIGTERM takes through
:class:`~repro.runtime.InterruptGuard`; damage is bytes flipped in chosen
rows of the store's ``evaluations`` table between the two runs.
"""

import dataclasses
import random as random_module
import sqlite3
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.composite import CompositeMatcher
from repro.core.config import EMSConfig
from repro.logs.log import EventLog
from repro.obs import MetricsRegistry, Observer
from repro.runtime import FaultPlan, FaultSpec
from repro.store import MatchStore

seeds = st.integers(min_value=0, max_value=2**31 - 1)
interrupt_rounds = st.integers(min_value=1, max_value=4)


def random_log(seed: int, alphabet: str = "abcdef") -> EventLog:
    rng = random_module.Random(seed)
    traces = []
    for _ in range(rng.randint(2, 8)):
        length = rng.randint(1, 6)
        traces.append([rng.choice(alphabet) for _ in range(length)])
    return EventLog(traces, name=f"rand-{seed}")


class RecordingStore(MatchStore):
    """A match store that records the round of every evaluation miss."""

    def __init__(self, path, observer: Observer):
        super().__init__(path, observer=observer)
        self.missed_rounds: list[int] = []

    def get_evaluation(self, key):
        value = super().get_evaluation(key)
        if value is None:
            gauge = self.observer.metrics.get("composite_round")
            self.missed_rounds.append(int(gauge.value))
        return value


def _matcher(**kwargs) -> CompositeMatcher:
    defaults = dict(delta=0.0, min_confidence=0.8, max_run_length=3)
    defaults.update(kwargs)
    return CompositeMatcher(EMSConfig(), **defaults)


def _cached(directory, faults=None):
    """A matcher over the store in *directory*, and that store."""
    observer = Observer(metrics=MetricsRegistry())
    store = RecordingStore(Path(directory) / "match.db", observer)
    return _matcher(store=store, faults=faults, observer=observer), store


def _interrupt_at(round_: int) -> FaultPlan:
    return FaultPlan(specs=(
        FaultSpec(site="search.round", kind="interrupt", round=round_),
    ))


def _strip_timing(report_dict):
    return {k: v for k, v in report_dict.items() if k != "wall_time"}


def _assert_same_search(result, baseline):
    assert result.accepted_first == baseline.accepted_first
    assert result.accepted_second == baseline.accepted_second
    assert result.members_first == baseline.members_first
    assert result.members_second == baseline.members_second
    np.testing.assert_array_equal(result.matrix.values, baseline.matrix.values)
    assert result.matrix.rows == baseline.matrix.rows
    assert result.matrix.cols == baseline.matrix.cols
    assert dataclasses.asdict(result.stats) == dataclasses.asdict(baseline.stats)


@settings(max_examples=15, deadline=None)
@given(seed=seeds, interrupt_round=interrupt_rounds)
def test_interrupted_then_resumed_equals_uninterrupted(seed, interrupt_round):
    pair = random_log(seed), random_log(seed + 1, alphabet="uvwxyz")
    baseline = _matcher().match(*pair)

    with tempfile.TemporaryDirectory() as scratch:
        matcher, store = _cached(scratch, faults=_interrupt_at(interrupt_round))
        interrupted = matcher.match(*pair)
        store.close()
        if baseline.stats.rounds >= interrupt_round:
            assert interrupted.runtime.stage == "partial"
            assert interrupted.runtime.reason == "interrupted"
            assert interrupted.stats.rounds == interrupt_round - 1
        matcher, cache = _cached(scratch)
        resumed = matcher.match(*pair)
        cache.close()

    _assert_same_search(resumed, baseline)
    assert _strip_timing(resumed.runtime.to_dict()) == _strip_timing(
        baseline.runtime.to_dict()
    )
    # Every round the interrupted run finished is replayed from the store:
    # each evaluation it ran is served once.
    assert all(round_ >= interrupt_round for round_ in cache.missed_rounds)
    assert cache.hits == interrupted.stats.candidates_evaluated


@settings(max_examples=10, deadline=None)
@given(seed=seeds, interrupt_round=interrupt_rounds)
def test_double_interrupt_chain_still_converges(seed, interrupt_round):
    """Interrupt, re-run, interrupt later, re-run again — still identical."""
    pair = random_log(seed), random_log(seed + 1, alphabet="uvwxyz")
    baseline = _matcher().match(*pair)

    with tempfile.TemporaryDirectory() as scratch:
        resumed_at = 1
        for stop_at in (interrupt_round, interrupt_round + 1, None):
            faults = None if stop_at is None else _interrupt_at(stop_at)
            matcher, cache = _cached(scratch, faults=faults)
            final = matcher.match(*pair)
            cache.close()
            assert all(round_ >= resumed_at for round_ in cache.missed_rounds)
            resumed_at = stop_at

    _assert_same_search(final, baseline)


@settings(max_examples=10, deadline=None)
@given(seed=seeds, interrupt_round=interrupt_rounds, data=st.data())
def test_corrupted_cache_falls_back_to_cold_identical_run(
    seed, interrupt_round, data
):
    """Bit rot between interrupt and re-run: cold evaluations, same answer."""
    pair = random_log(seed), random_log(seed + 1, alphabet="uvwxyz")
    baseline = _matcher().match(*pair)

    with tempfile.TemporaryDirectory() as scratch:
        matcher, cache = _cached(scratch, faults=_interrupt_at(interrupt_round))
        matcher.match(*pair)
        cache.close()
        connection = sqlite3.connect(cache.path)
        rows = connection.execute(
            "SELECT key, payload FROM evaluations ORDER BY key"
        ).fetchall()
        damaged = data.draw(
            st.lists(st.sampled_from(rows), unique=True) if rows
            else st.just([])
        )
        for key, payload in damaged:
            raw = bytearray(payload)
            position = data.draw(st.integers(0, len(raw) - 1))
            raw[position] ^= 0xFF
            connection.execute(
                "UPDATE evaluations SET payload = ? WHERE key = ?", (bytes(raw), key)
            )
        connection.commit()
        connection.close()
        matcher, cache = _cached(scratch)
        resumed = matcher.match(*pair)
        cache.close()

    _assert_same_search(resumed, baseline)
    corrupt = cache.observer.metrics.get("eval_cache_corrupt_total")
    assert (0 if corrupt is None else corrupt.value) == len(damaged)
