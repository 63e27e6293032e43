"""Unit tests for MatchBudget / BudgetMeter / InterruptGuard."""

import os
import signal

import pytest

from repro.exceptions import BudgetExhausted, ReproError
from repro.runtime import BudgetMeter, InterruptGuard, MatchBudget


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestMatchBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            MatchBudget(deadline=-1.0)
        with pytest.raises(ValueError):
            MatchBudget(max_pair_updates=-5)

    def test_unbounded(self):
        assert MatchBudget().unbounded
        assert not MatchBudget(deadline=1.0).unbounded
        assert not MatchBudget(max_pair_updates=10).unbounded

    def test_describe(self):
        assert MatchBudget().describe() == "unbounded"
        text = MatchBudget(deadline=2.5, max_pair_updates=100).describe()
        assert "2.5" in text and "100" in text

    def test_zero_deadline_is_legal(self):
        assert MatchBudget(deadline=0.0).deadline == 0.0


class TestBudgetMeter:
    def test_deadline_check(self):
        clock = FakeClock()
        meter = MatchBudget(deadline=10.0).start(clock)
        meter.check()  # within budget
        clock.now = 10.5
        with pytest.raises(BudgetExhausted) as excinfo:
            meter.check()
        assert excinfo.value.reason == "deadline"

    def test_pair_update_budget(self):
        meter = MatchBudget(max_pair_updates=3).start(FakeClock())
        for _ in range(3):
            meter.tick()
        with pytest.raises(BudgetExhausted) as excinfo:
            meter.tick()
        assert excinfo.value.reason == "pair-updates"
        assert excinfo.value.pair_updates == 4

    def test_check_reports_spent_pair_budget(self):
        meter = MatchBudget(max_pair_updates=2).start(FakeClock())
        meter.tick()
        meter.tick()
        with pytest.raises(BudgetExhausted):
            meter.check()

    def test_tick_rereads_clock_on_stride(self):
        clock = FakeClock()
        meter = MatchBudget(deadline=5.0).start(clock)
        clock.now = 6.0
        # Under the stride no clock read happens...
        for _ in range(255):
            meter.tick()
        # ...the 256th re-reads and trips the deadline.
        with pytest.raises(BudgetExhausted):
            meter.tick()

    def test_elapsed(self):
        clock = FakeClock(100.0)
        meter = MatchBudget().start(clock)
        clock.now = 101.5
        assert meter.elapsed() == pytest.approx(1.5)

    def test_exhaustion_is_a_repro_error(self):
        assert issubclass(BudgetExhausted, ReproError)

    def test_unbounded_meter_never_raises(self):
        meter = MatchBudget().start(FakeClock())
        for _ in range(1000):
            meter.tick()
        meter.check()


class TestBatchedTick:
    """tick(n) must be indistinguishable from n single ticks."""

    def test_batched_equals_singles(self):
        single = MatchBudget(max_pair_updates=100).start(FakeClock())
        batched = MatchBudget(max_pair_updates=100).start(FakeClock())
        for _ in range(60):
            single.tick()
        batched.tick(60)
        assert single.pair_updates_spent == batched.pair_updates_spent == 60

    def test_overshoot_raises_with_full_charge_committed(self):
        meter = MatchBudget(max_pair_updates=10).start(FakeClock())
        with pytest.raises(BudgetExhausted) as excinfo:
            meter.tick(25)
        assert excinfo.value.reason == "pair-updates"
        assert meter.pair_updates_spent == 25

    def test_zero_charge_is_a_noop(self):
        meter = MatchBudget(max_pair_updates=0).start(FakeClock())
        meter.tick(0)  # must not raise even with the cap already at 0
        assert meter.pair_updates_spent == 0

    def test_negative_charge_rejected(self):
        meter = MatchBudget().start(FakeClock())
        with pytest.raises(ValueError):
            meter.tick(-1)

    def test_deadline_checked_when_batch_crosses_stride(self):
        clock = FakeClock()
        meter = MatchBudget(deadline=5.0).start(clock)
        clock.now = 6.0
        meter.tick(255)  # below the stride boundary: no clock read
        with pytest.raises(BudgetExhausted) as excinfo:
            meter.tick(1)  # 255 -> 256 crosses the boundary
        assert excinfo.value.reason == "deadline"

    def test_deadline_not_checked_within_stride(self):
        clock = FakeClock()
        meter = MatchBudget(deadline=5.0).start(clock)
        clock.now = 6.0
        meter.tick(100)
        meter.tick(100)  # cumulative 200 < 256: still no clock read
        assert meter.pair_updates_spent == 200

    def test_large_batch_crossing_stride_trips_deadline(self):
        clock = FakeClock()
        meter = MatchBudget(deadline=5.0).start(clock)
        clock.now = 6.0
        with pytest.raises(BudgetExhausted):
            meter.tick(1000)

    def test_pair_updates_remaining(self):
        meter = MatchBudget(max_pair_updates=10).start(FakeClock())
        assert meter.pair_updates_remaining == 10
        meter.tick(4)
        assert meter.pair_updates_remaining == 6
        assert MatchBudget().start(FakeClock()).pair_updates_remaining is None


class TestInterruptGuard:
    def test_trip_sets_flag(self):
        guard = InterruptGuard(signals=())
        assert not guard.interrupted
        guard.trip("fault:search.round[2]")
        assert guard.interrupted
        assert guard.signal_name == "fault:search.round[2]"

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
