"""The benchmark harness's regression gate (`compare`).

Machine-independent checks only: the floor keys must be enforced, and —
the part that once silently passed — a floor key missing from either
payload must fail loudly instead of defaulting to a vacuous verdict.
"""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_core_kernels  # noqa: E402
from bench_core_kernels import FLOORS, compare, environment_warnings, main  # noqa: E402


def payload(**overrides) -> dict:
    base = {
        "calibration_time": 1.0,
        "scenarios": {},
        "environment": {"python": "3.11.7", "numpy": "2.4.6"},
        "speedup_exact_20": 5.0,
        "speedup_composite": 4.0,
        "memory_reduction_sparse": 6.0,
        "noop_observer_overhead": 1.0,
        "warm_cache_speedup": 7.0,
        "ingest_streamed_memory": 0.2,
        "stats_store_warm": 20.0,
        "match_store_warm": 50.0,
        "service_warm_speedup": 25.0,
    }
    base.update(overrides)
    return base


class TestFloorKeys:
    def test_clean_payloads_pass(self):
        assert compare(payload(), payload(), 2.0) == []

    def test_missing_key_in_current_fails(self):
        for key, _, _, _ in FLOORS:
            current = payload()
            del current[key]
            failures = compare(current, payload(), 2.0)
            assert any(key in failure and "current" in failure
                       for failure in failures), key

    def test_missing_key_in_baseline_fails(self):
        for key, _, _, _ in FLOORS:
            baseline = payload()
            del baseline[key]
            failures = compare(payload(), baseline, 2.0)
            assert any(key in failure and "baseline" in failure
                       for failure in failures), key

    def test_min_floor_violation_fails(self):
        failures = compare(payload(speedup_exact_20=2.9), payload(), 2.0)
        assert len(failures) == 1
        assert "3" in failures[0]

    def test_memory_floor_violation_fails(self):
        failures = compare(payload(memory_reduction_sparse=3.5), payload(), 2.0)
        assert len(failures) == 1
        assert "memory" in failures[0]

    def test_ratio_ceiling_violation_fails(self):
        failures = compare(payload(ingest_streamed_memory=0.3), payload(), 2.0)
        assert len(failures) == 1
        assert "ratio" in failures[0] and "ceiling" in failures[0]

    def test_value_at_the_bound_passes(self):
        ok = payload(
            speedup_exact_20=3.0, speedup_composite=3.0,
            memory_reduction_sparse=4.0,
            noop_observer_overhead=1.1, warm_cache_speedup=5.0,
            ingest_streamed_memory=0.25, stats_store_warm=5.0,
            match_store_warm=10.0, service_warm_speedup=2.0,
        )
        assert compare(ok, payload(), 2.0) == []

    def test_warm_cache_floor_violation_fails(self):
        failures = compare(payload(warm_cache_speedup=4.2), payload(), 2.0)
        assert len(failures) == 1
        assert "warm" in failures[0]

    def test_noop_overhead_ceiling_violation_fails(self):
        failures = compare(payload(noop_observer_overhead=1.2), payload(), 2.0)
        assert len(failures) == 1
        assert "observer" in failures[0]

    def test_ingest_memory_ceiling_violation_fails(self):
        failures = compare(payload(ingest_streamed_memory=0.4), payload(), 2.0)
        assert len(failures) == 1
        assert "ingestion" in failures[0]

    def test_store_warm_floor_violation_fails(self):
        failures = compare(payload(stats_store_warm=3.0), payload(), 2.0)
        assert len(failures) == 1
        assert "store" in failures[0]

    def test_match_store_warm_floor_violation_fails(self):
        failures = compare(payload(match_store_warm=7.0), payload(), 2.0)
        assert len(failures) == 1
        assert "match" in failures[0]

    def test_service_warm_floor_violation_fails(self):
        failures = compare(payload(service_warm_speedup=1.5), payload(), 2.0)
        assert len(failures) == 1
        assert "daemon" in failures[0]


class TestEnvironmentWarnings:
    def test_identical_environments_are_silent(self):
        assert environment_warnings(payload(), payload()) == []

    def test_mismatch_is_warned_per_key(self):
        current = payload(environment={"python": "3.12.0", "numpy": "2.4.6"})
        warnings = environment_warnings(current, payload())
        assert len(warnings) == 1
        assert "python" in warnings[0]
        assert "3.12.0" in warnings[0] and "3.11.7" in warnings[0]

    def test_missing_baseline_environment_is_flagged(self):
        baseline = payload()
        del baseline["environment"]
        warnings = environment_warnings(payload(), baseline)
        assert len(warnings) == 1
        assert "no environment metadata" in warnings[0]

    def test_warnings_are_not_compare_failures(self):
        current = payload(environment={"python": "3.12.0"})
        assert compare(current, payload(), 2.0) == []


class TestScenarioComparison:
    def test_disappeared_scenario_flagged(self):
        baseline = payload(
            scenarios={"x": {"mean_time": 1.0, "pair_updates": 10}}
        )
        failures = compare(payload(), baseline, 2.0)
        assert any("disappeared" in failure for failure in failures)

    def test_pair_update_growth_flagged(self):
        baseline = payload(
            scenarios={"x": {"mean_time": 1.0, "pair_updates": 10}}
        )
        current = payload(
            scenarios={"x": {"mean_time": 1.0, "pair_updates": 12}}
        )
        failures = compare(current, baseline, 2.0)
        assert any("pair_updates" in failure for failure in failures)


class TestOutputIsNotTheBaseline:
    """``--check`` must never compare a baseline with a payload written over it."""

    @staticmethod
    def _no_harness(repeats):
        raise AssertionError("the harness ran before refusing the arguments")

    def test_same_file_exits_2_and_leaves_it(self, tmp_path, monkeypatch, capsys):
        baseline = tmp_path / "BENCH_core.json"
        baseline.write_text('{"calibration_time": 1.0}\n', encoding="utf-8")
        monkeypatch.setattr(bench_core_kernels, "run_harness", self._no_harness)
        monkeypatch.chdir(tmp_path)
        status = main(["--check", "BENCH_core.json", "--output", str(baseline)])
        assert status == 2
        assert baseline.read_text(encoding="utf-8") == '{"calibration_time": 1.0}\n'
        assert "--output" in capsys.readouterr().err

    def test_default_output_is_the_baseline(self, tmp_path, monkeypatch):
        baseline = tmp_path / "BENCH_core.json"
        baseline.write_text("{}\n", encoding="utf-8")
        monkeypatch.setattr(bench_core_kernels, "DEFAULT_OUTPUT", baseline)
        monkeypatch.setattr(bench_core_kernels, "run_harness", self._no_harness)
        monkeypatch.chdir(tmp_path)
        assert main(["--check", "BENCH_core.json"]) == 2
        assert baseline.read_text(encoding="utf-8") == "{}\n"


class TestCommittedBaseline:
    def test_baseline_has_every_floor_key(self):
        committed = json.loads(
            (REPO_ROOT / "BENCH_core.json").read_text(encoding="utf-8")
        )
        for key, bound, sense, _ in FLOORS:
            assert key in committed, key
            if sense == "min":
                assert committed[key] >= bound, key
            else:
                assert committed[key] <= bound, key
        assert compare(committed, committed, 2.0) == []
