"""Unit tests of the deterministic fault-injection harness."""

import pytest

from repro.runtime.faults import (
    KIND_CORRUPT,
    KIND_INTERRUPT,
    NO_FAULTS,
    FaultPlan,
    FaultSpec,
    TransientFault,
)


class TestFaultSpec:
    def test_exact_coordinates_match(self):
        spec = FaultSpec(site="evaluate", kind="transient", round=2,
                         side=1, run=("a", "b"), attempts=(1,))
        assert spec.matches("evaluate", round=2, side=1, run=("a", "b"), attempt=1)
        assert not spec.matches("evaluate", round=3, side=1, run=("a", "b"), attempt=1)
        assert not spec.matches("evaluate", round=2, side=0, run=("a", "b"), attempt=1)
        assert not spec.matches("evaluate", round=2, side=1, run=("a", "c"), attempt=1)
        assert not spec.matches("evaluate", round=2, side=1, run=("a", "b"), attempt=2)
        assert not spec.matches("checkpoint.write", round=2)

    def test_none_coordinates_are_wildcards(self):
        spec = FaultSpec(site="evaluate", kind="transient")
        assert spec.matches("evaluate", round=7, side=0, run=("x",), attempt=1)

    def test_empty_attempts_is_every_attempt(self):
        spec = FaultSpec(site="evaluate", kind="transient", attempts=())
        for attempt in (1, 2, 3, 17):
            assert spec.matches("evaluate", attempt=attempt)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(site="evaluate", kind="meltdown")

    @pytest.mark.parametrize("kind", ["crash", "timeout"])
    def test_retired_worker_kinds_rejected(self, kind):
        with pytest.raises(ValueError):
            FaultSpec(site="evaluate", kind=kind)
        with pytest.raises(ValueError):
            FaultPlan.from_json(f'{{"specs": [{{"site": "evaluate", "kind": "{kind}"}}]}}')


class TestFaultPlan:
    def test_no_faults_is_falsy_and_never_matches(self):
        assert not NO_FAULTS
        assert NO_FAULTS.match("evaluate", round=1) is None
        assert NO_FAULTS.fire("evaluate", round=1) is None

    def test_first_matching_spec_wins(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="evaluate", kind="interrupt", round=1),
            FaultSpec(site="evaluate", kind="corrupt", round=1),
        ))
        assert plan.match("evaluate", round=1).kind == KIND_INTERRUPT

    def test_transient_fires_anywhere(self):
        plan = FaultPlan(specs=(FaultSpec(site="evaluate", kind="transient"),))
        with pytest.raises(TransientFault):
            plan.fire("evaluate", round=1)

    def test_interrupt_and_corrupt_returned_not_acted(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="search.round", kind="interrupt", round=3),
            FaultSpec(site="checkpoint.write", kind="corrupt"),
        ))
        assert plan.fire("search.round", round=3).kind == KIND_INTERRUPT
        assert plan.fire("checkpoint.write", round=1).kind == KIND_CORRUPT

    def test_json_round_trip(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(site="evaluate", kind="transient", round=2,
                          side=1, run=("a", "b"), attempts=(1, 2)),
                FaultSpec(site="checkpoint.write", kind="corrupt", attempts=()),
            ),
            seed=7,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_corruption_is_deterministic_and_real(self):
        plan = FaultPlan(seed=3)
        payload = bytes(range(256)) * 8
        first = plan.corrupt(payload, round=2)
        second = plan.corrupt(payload, round=2)
        assert first == second
        assert first != payload
        assert plan.corrupt(payload, round=5) != first
        assert plan.corrupt(b"", round=1) == b""
