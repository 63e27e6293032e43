"""Smoke tests that the installed entry points actually launch."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120
    )


class TestEntryPoints:
    def test_repro_match_help(self):
        result = run(["-m", "repro", "match", "--help"])
        assert result.returncode == 0
        assert "--composite" in result.stdout

    def test_repro_module_requires_command(self):
        result = run(["-m", "repro"])
        assert result.returncode != 0

    def test_experiments_help(self):
        result = run(["-m", "repro.experiments", "--help"])
        assert result.returncode == 0
        assert "fig3" in result.stdout
        assert "ext-noise" in result.stdout

    def test_experiments_unknown_figure(self):
        result = run(["-m", "repro.experiments", "fig99"])
        assert result.returncode != 0
        assert "unknown figures" in result.stderr

    @pytest.mark.parametrize("figure", ["fig7"])
    def test_experiments_quick_figure_runs(self, figure):
        result = run(["-m", "repro.experiments", figure])
        assert result.returncode == 0
        assert "completed in" in result.stdout

    def test_match_end_to_end(self, tmp_path):
        from repro.logs.xes import write_xes
        from repro.synthesis.examples import figure1_logs

        log_first, log_second, _ = figure1_logs()
        path_first = tmp_path / "first.xes"
        path_second = tmp_path / "second.xes"
        write_xes(log_first, path_first)
        write_xes(log_second, path_second)
        result = run(["-m", "repro", "match", str(path_first), str(path_second)])
        assert result.returncode == 0
        assert "<->" in result.stdout


class TestExamples:
    def test_cross_subsidiary_output_independent_of_hash_seed(self):
        """The example's stdout must not depend on set iteration order."""
        outputs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": str(ROOT / "src")}
            result = subprocess.run(
                [sys.executable, str(ROOT / "examples" / "cross_subsidiary_search.py")],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert "cross-subsidiary query" in outputs[0]
        assert outputs[0] == outputs[1]
