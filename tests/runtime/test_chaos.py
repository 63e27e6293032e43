"""Chaos suite: faults against the full composite pipeline.

A candidate evaluation that raises fails the whole match: the search
never finishes a round without one of its candidates, whether or not a
:class:`~repro.runtime.faults.FaultPlan` is attached.  A plan naming a
fault kind, site or coordinate the runtime does not know, or a site
with a kind it never acts out, is rejected as bad input before anything
runs.
"""

import json

import pytest

from repro.cli import EXIT_INPUT_ERROR, main
from repro.core.composite import CompositeMatcher
from repro.core.config import EMSConfig
from repro.core.incremental import IncrementalSearchState
from repro.logs.csvio import write_csv
from repro.runtime.faults import FaultPlan, FaultSpec


class TestFailingEvaluation:
    def test_failing_evaluation_fails_the_match(self, monkeypatch, wide_pair):
        # An interrupt that never fires: the plan is attached, the search
        # runs to completion unless an evaluation raises.
        plan = FaultPlan(specs=(
            FaultSpec(site="search.round", kind="interrupt", round=99),
        ))
        evaluate = IncrementalSearchState.evaluate

        def failing(self, side_index, run, *args, **kwargs):
            if run == ("D1", "D2"):
                raise RuntimeError("evaluation of D1+D2 failed")
            return evaluate(self, side_index, run, *args, **kwargs)

        monkeypatch.setattr(IncrementalSearchState, "evaluate", failing)
        matcher = CompositeMatcher(EMSConfig(), delta=0.001, faults=plan)
        with pytest.raises(RuntimeError, match="evaluation of D1\\+D2 failed"):
            matcher.match(*wide_pair)


class TestChaosCLI:
    """Bad fault plans are bad input."""

    @pytest.fixture()
    def csv_pair(self, tmp_path, wide_pair):
        first, second = tmp_path / "wide_a.csv", tmp_path / "wide_b.csv"
        write_csv(wide_pair[0], first)
        write_csv(wide_pair[1], second)
        return first, second

    @pytest.mark.parametrize("spec", [
        {"site": "evaluate", "kind": "crash"},
        {"site": "evaluate", "kind": "timeout"},
        {"site": "evaluate", "kind": "transient", "delay": 30.0},
        {"site": "evaluate", "kind": "transient"},
        {"site": "search.round", "kind": "interrupt", "attempts": [1]},
        {"site": "evaluate", "kind": "interrupt"},
        {"site": "search.rnd", "kind": "interrupt"},
        {"site": "search.round", "kind": "corrupt"},
        {"site": "checkpoint.write", "kind": "interrupt"},
        {"site": "checkpoint.write", "kind": "corrupt"},
    ])
    def test_retired_fault_kinds_exit_2(self, capsys, tmp_path, csv_pair, spec):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"specs": [spec]}))
        code = main([
            "match", str(csv_pair[0]), str(csv_pair[1]),
            "--composite", "--fault-plan", str(plan_path),
        ])
        assert code == EXIT_INPUT_ERROR
        assert "cannot load fault plan" in capsys.readouterr().err
