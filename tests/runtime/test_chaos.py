"""Chaos suite: scripted faults against the full composite pipeline.

Every test drives the composite search with a deterministic
:class:`~repro.runtime.faults.FaultPlan` and asserts the durability
contract: faulted runs complete through retry/quarantine with
*identical* final correspondences, and a plan naming a fault kind the
runtime does not know is rejected as bad input before anything runs.
"""

import json

import numpy as np
import pytest

from repro.cli import EXIT_INPUT_ERROR, main
from repro.core.composite import CompositeMatcher
from repro.core.config import EMSConfig
from repro.logs.csvio import write_csv
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.supervise import RetryPolicy

KNOBS = dict(delta=0.001)
RETRY = RetryPolicy(max_attempts=3, base_delay=0.0)


def _match(pair, *, faults=None, retry=RETRY, **extra):
    matcher = CompositeMatcher(
        EMSConfig(), retry=retry, faults=faults, **KNOBS, **extra,
    )
    return matcher.match(*pair)


def _assert_identical(faulted, clean):
    assert faulted.accepted_first == clean.accepted_first
    assert faulted.accepted_second == clean.accepted_second
    assert faulted.members_first == clean.members_first
    assert faulted.members_second == clean.members_second
    np.testing.assert_array_equal(faulted.matrix.values, clean.matrix.values)
    assert faulted.stats.rounds == clean.stats.rounds


class TestFaultRecovery:
    def test_transient_fault_heals_to_identical_result(self, wide_pair):
        clean = _match(wide_pair)
        plan = FaultPlan(specs=(
            FaultSpec(site="evaluate", kind="transient", round=1,
                      side=0, run=("C1", "C2"), attempts=(1,)),
        ))
        faulted = _match(wide_pair, faults=plan)
        _assert_identical(faulted, clean)
        assert faulted.stats.worker_retries >= 1
        assert faulted.quarantined == ()

    def test_poison_candidate_quarantined(self, wide_pair):
        plan = FaultPlan(specs=(
            FaultSpec(site="evaluate", kind="transient",
                      side=0, run=("D1", "D2"), attempts=()),
        ))
        result = _match(wide_pair, faults=plan)
        assert ("D1", "D2") not in result.accepted_first
        assert any(
            record.run == ("D1", "D2") for record in result.quarantined
        )
        assert result.stats.candidates_quarantined >= 1
        # The other three merges still went through.
        assert len(result.accepted_first) == 3


class TestChaosCLI:
    """Faulted CLI runs match clean ones."""

    @pytest.fixture()
    def csv_pair(self, tmp_path, wide_pair):
        first, second = tmp_path / "wide_a.csv", tmp_path / "wide_b.csv"
        write_csv(wide_pair[0], first)
        write_csv(wide_pair[1], second)
        return first, second

    def _run(self, capsys, csv_pair, *extra):
        code = main([
            "match", str(csv_pair[0]), str(csv_pair[1]),
            "--composite", "--delta", "0.001", "--json", *extra,
        ])
        captured = capsys.readouterr()
        return code, (json.loads(captured.out) if code == 0 else captured.err)

    def test_faulted_run_matches_clean_run(self, capsys, tmp_path, csv_pair):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(FaultPlan(specs=(
            FaultSpec(site="evaluate", kind="transient", round=1,
                      side=0, run=("A1", "A2"), attempts=(1,)),
        )).to_json())
        code, clean = self._run(capsys, csv_pair)
        assert code == 0
        code, faulted = self._run(
            capsys, csv_pair,
            "--fault-plan", str(plan_path), "--max-retries", "3",
        )
        assert code == 0
        assert faulted["correspondences"] == clean["correspondences"]
        assert faulted["objective"] == clean["objective"]
        assert faulted["quarantined"] == []
        assert faulted["diagnostics"]["worker_retries"] >= 1

    @pytest.mark.parametrize("spec", [
        {"site": "evaluate", "kind": "crash"},
        {"site": "evaluate", "kind": "timeout"},
        {"site": "evaluate", "kind": "transient", "delay": 30.0},
    ])
    def test_retired_fault_kinds_exit_2(self, capsys, tmp_path, csv_pair, spec):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"seed": 0, "specs": [spec]}))
        code, err = self._run(capsys, csv_pair, "--fault-plan", str(plan_path))
        assert code == EXIT_INPUT_ERROR
        assert "cannot load fault plan" in err
