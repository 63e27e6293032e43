"""Supervised execution: retry policy, retry and quarantine."""

import numpy as np
import pytest

from repro.core.composite import CompositeMatcher
from repro.core.config import EMSConfig
from repro.exceptions import BudgetExhausted
from repro.runtime.faults import FaultPlan, FaultSpec, TransientFault
from repro.runtime.supervise import (
    QuarantineRecord,
    RetryPolicy,
    run_supervised,
)


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(4) == pytest.approx(0.5)  # capped
        assert policy.delay(9) == pytest.approx(0.5)

    def test_jitter_is_deterministic(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5, seed=11)
        assert policy.delay(2) == policy.delay(2)
        stretched = policy.delay(2)
        plain = RetryPolicy(base_delay=0.1).delay(2)
        assert plain <= stretched <= plain * 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


class TestRunSupervised:
    POLICY = RetryPolicy(max_attempts=3, base_delay=0.01)

    def test_success_passes_value_through(self):
        value, record = run_supervised(
            lambda attempt: attempt * 10,
            policy=self.POLICY, describe=lambda: (0, ("a",)),
        )
        assert value == 10
        assert record is None

    def test_transient_fault_is_retried(self):
        slept = []

        def call(attempt):
            if attempt == 1:
                raise TransientFault("flaky")
            return "ok"

        value, record = run_supervised(
            call, policy=self.POLICY, describe=lambda: (0, ("a",)),
            sleep=slept.append,
        )
        assert value == "ok"
        assert record is None
        assert slept == [pytest.approx(0.01)]

    def test_exhausted_retries_quarantine_with_provenance(self):
        def call(attempt):
            raise TransientFault("always flaky")

        value, record = run_supervised(
            call, policy=self.POLICY, describe=lambda: (1, ("a", "b")),
            round=4, config_hash="cafe", sleep=lambda _: None,
        )
        assert value is None
        assert record == QuarantineRecord(
            side=1, run=("a", "b"), round=4, attempts=3,
            error_type="TransientFault", error_message="always flaky",
            config_hash="cafe",
        )
        assert "a+b" in record.describe()

    def test_deterministic_error_quarantines_without_retries(self):
        calls = []

        def call(attempt):
            calls.append(attempt)
            raise ValueError("poison")

        value, record = run_supervised(
            call, policy=self.POLICY, describe=lambda: (0, ("a",)),
        )
        assert value is None
        assert calls == [1]  # no retries burned on deterministic poison
        assert record.error_type == "ValueError"

    def test_budget_exhaustion_propagates(self):
        def call(attempt):
            raise BudgetExhausted("deadline")

        with pytest.raises(BudgetExhausted):
            run_supervised(
                call, policy=self.POLICY, describe=lambda: (0, ("a",)),
            )


class TestSerialSupervision:
    """Supervision of the serial composite path via injected faults."""

    KNOBS = dict(delta=0.005, min_confidence=0.9, max_run_length=2)
    RETRY = RetryPolicy(max_attempts=3, base_delay=0.0)

    def test_transient_fault_retried_to_identical_result(self, fig1_logs):
        clean = CompositeMatcher(EMSConfig(), **self.KNOBS).match(*fig1_logs)
        plan = FaultPlan(specs=(
            FaultSpec(site="evaluate", kind="transient", round=1, attempts=(1,)),
        ))
        faulted = CompositeMatcher(
            EMSConfig(), retry=self.RETRY, faults=plan, **self.KNOBS
        ).match(*fig1_logs)
        assert faulted.accepted_first == clean.accepted_first
        assert faulted.accepted_second == clean.accepted_second
        np.testing.assert_array_equal(
            faulted.matrix.values, clean.matrix.values
        )
        assert faulted.stats.worker_retries == 1
        assert faulted.quarantined == ()

    def test_poison_candidate_quarantined_and_round_completes(self, fig1_logs):
        plan = FaultPlan(specs=(
            FaultSpec(site="evaluate", kind="transient",
                      side=0, run=("C", "D"), attempts=()),
        ))
        result = CompositeMatcher(
            EMSConfig(), retry=self.RETRY, faults=plan, **self.KNOBS
        ).match(*fig1_logs)
        # The only viable merge was poisoned, so nothing is accepted —
        # but the search still completes and reports the quarantine.
        assert result.accepted_first == ()
        assert len(result.quarantined) == 1
        record = result.quarantined[0]
        assert (record.side, record.run) == (0, ("C", "D"))
        assert record.attempts == self.RETRY.max_attempts
        assert record.error_type == "TransientFault"
        assert record.config_hash == ""  # no checkpointing configured
        assert result.stats.candidates_quarantined == 1
        assert result.stats.worker_retries == self.RETRY.max_attempts - 1
