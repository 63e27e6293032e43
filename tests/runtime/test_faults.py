"""Unit tests of the deterministic fault-injection harness."""

import json

import pytest

from repro.runtime.faults import KIND_INTERRUPT, NO_FAULTS, FaultPlan, FaultSpec


class TestFaultSpec:
    def test_exact_coordinates_match(self):
        spec = FaultSpec(site="search.round", kind="interrupt", round=2)
        assert spec.matches("search.round", round=2)
        assert not spec.matches("search.round", round=3)
        assert not spec.matches("evaluate", round=2)

    def test_none_coordinates_are_wildcards(self):
        spec = FaultSpec(site="search.round", kind="interrupt")
        assert spec.matches("search.round", round=7)
        assert spec.matches("search.round")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(site="search.round", kind="meltdown")

    @pytest.mark.parametrize("spec", [
        pytest.param({"site": "evaluate", "kind": "crash"}, id="crash"),
        pytest.param({"site": "evaluate", "kind": "timeout"}, id="timeout"),
        pytest.param({"site": "evaluate", "kind": "transient"}, id="transient"),
        pytest.param(
            {"site": "search.round", "kind": "interrupt", "attempts": [1]},
            id="attempts",
        ),
        pytest.param({"site": "evaluate", "kind": "interrupt"}, id="evaluate-site"),
        pytest.param({"site": "search.rnd", "kind": "interrupt"}, id="misspelt-site"),
        pytest.param({"site": "search.round", "kind": "corrupt"}, id="round-corrupt"),
        pytest.param(
            {"site": "checkpoint.write", "kind": "interrupt"},
            id="checkpoint-interrupt",
        ),
        pytest.param(
            {"site": "checkpoint.write", "kind": "corrupt"},
            id="checkpoint-corrupt",
        ),
    ])
    def test_retired_worker_kinds_rejected(self, spec):
        with pytest.raises((TypeError, ValueError)):
            FaultSpec(**spec)
        with pytest.raises((TypeError, ValueError)):
            FaultPlan.from_json(json.dumps({"specs": [spec]}))


class TestFaultPlan:
    def test_no_faults_is_falsy_and_never_matches(self):
        assert not NO_FAULTS
        assert NO_FAULTS.match("search.round", round=1) is None

    def test_first_matching_spec_wins(self):
        exact = FaultSpec(site="search.round", kind="interrupt", round=1)
        wildcard = FaultSpec(site="search.round", kind="interrupt")
        plan = FaultPlan(specs=(exact, wildcard))
        assert plan.match("search.round", round=1) is exact
        assert plan.match("search.round", round=2) is wildcard
        assert FaultPlan(specs=(wildcard, exact)).match(
            "search.round", round=1
        ) is wildcard

    def test_interrupt_returned_not_acted(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="search.round", kind="interrupt", round=3),
        ))
        assert plan.match("search.round", round=3).kind == KIND_INTERRUPT
        assert plan.match("search.round", round=2) is None

    def test_json_round_trip(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="search.round", kind="interrupt", round=2),
            FaultSpec(site="search.round", kind="interrupt"),
        ))
        assert FaultPlan.from_json(plan.to_json()) == plan
