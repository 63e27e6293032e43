"""CLI failure behaviour: exit codes, budgets, and fault-tolerant flags."""

import json
import sqlite3

import pytest

from repro.cli import EXIT_BUDGET_EXHAUSTED, EXIT_INPUT_ERROR, main
from repro.logs.csvio import write_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured


class TestInputErrors:
    def test_missing_file_exits_2(self, capsys, corpus):
        code, captured = run(
            capsys, "match", str(corpus / "does_not_exist.csv"),
            str(corpus / "garbage_rows.csv"),
        )
        assert code == EXIT_INPUT_ERROR
        assert "error:" in captured.err

    def test_unknown_extension_exits_2(self, capsys, tmp_path):
        weird = tmp_path / "log.parquet"
        weird.write_text("whatever")
        code, captured = run(capsys, "match", str(weird), str(weird))
        assert code == EXIT_INPUT_ERROR
        assert "--format" in captured.err

    def test_bad_rows_in_raise_mode_exit_2(self, capsys, corpus):
        code, captured = run(
            capsys, "match", str(corpus / "garbage_rows.csv"),
            str(corpus / "garbage_rows.csv"),
        )
        assert code == EXIT_INPUT_ERROR
        assert "row" in captured.err

    def test_negative_budget_exits_2(self, capsys, corpus):
        code, captured = run(
            capsys, "match",
            str(corpus / "garbage_rows.csv"), str(corpus / "garbage_rows.csv"),
            "--on-error", "skip", "--pair-budget", "-5",
        )
        assert code == EXIT_INPUT_ERROR
        assert "must be >= 0" in captured.err

    def test_truncated_xes_in_raise_mode_exits_2(self, capsys, corpus):
        code, captured = run(
            capsys, "match", str(corpus / "truncated.xes"),
            str(corpus / "truncated.xes"),
        )
        assert code == EXIT_INPUT_ERROR
        assert "malformed" in captured.err


class TestBudgets:
    def test_timeout_without_degradation_exits_3(self, capsys, corpus):
        code, captured = run(
            capsys, "match",
            str(corpus / "adversarial_a.csv"), str(corpus / "adversarial_b.csv"),
            "--timeout", "0", "--no-degrade",
        )
        assert code == EXIT_BUDGET_EXHAUSTED
        assert "degradation disabled" in captured.err

    def test_timeout_with_degradation_exits_0(self, capsys, corpus):
        code, captured = run(
            capsys, "match",
            str(corpus / "adversarial_a.csv"), str(corpus / "adversarial_b.csv"),
            "--timeout", "0", "--json",
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["runtime"]["degraded"] is True
        assert payload["runtime"]["stage"] in ("estimated", "partial")
        assert payload["runtime"]["reason"] == "deadline"

    def test_pair_budget_composite_degrades(self, capsys, corpus):
        code, captured = run(
            capsys, "match",
            str(corpus / "adversarial_a.csv"), str(corpus / "adversarial_b.csv"),
            "--composite", "--pair-budget", "100", "--json",
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["runtime"]["degraded"] is True
        assert payload["correspondences"] is not None

    def test_degradation_note_on_stderr_in_plain_mode(self, capsys, corpus):
        code, captured = run(
            capsys, "match",
            str(corpus / "adversarial_a.csv"), str(corpus / "adversarial_b.csv"),
            "--timeout", "0",
        )
        assert code == 0
        assert "degraded" in captured.err

    def test_unbudgeted_run_reports_exact(self, capsys, corpus):
        code, captured = run(
            capsys, "match",
            str(corpus / "adversarial_a.csv"), str(corpus / "adversarial_b.csv"),
            "--json",
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["runtime"]["stage"] == "exact"
        assert payload["runtime"]["degraded"] is False


class TestFaultTolerantIngestion:
    def test_skip_mode_loads_dirty_csv(self, capsys, corpus):
        code, captured = run(
            capsys, "match",
            str(corpus / "garbage_rows.csv"), str(corpus / "garbage_rows.csv"),
            "--on-error", "skip", "--json",
        )
        assert code == 0
        payload = json.loads(captured.out)
        first = payload["ingestion"]["first"]
        assert first["clean"] is False
        assert first["rows_seen"] == first["events_loaded"] + len(first["dropped"])

    def test_repair_mode_salvages_truncated_xes(self, capsys, corpus):
        code, captured = run(
            capsys, "match",
            str(corpus / "truncated.xes"), str(corpus / "truncated.xes"),
            "--on-error", "repair", "--json",
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["ingestion"]["first"]["truncation"]
        assert payload["objective"] > 0.0

    def test_ingestion_note_on_stderr_in_plain_mode(self, capsys, corpus):
        code, captured = run(
            capsys, "match",
            str(corpus / "garbage_rows.csv"), str(corpus / "garbage_rows.csv"),
            "--on-error", "skip",
        )
        assert code == 0
        assert "dropped" in captured.err


class TestDurabilityFlags:
    def test_exit_codes_are_distinct(self):
        assert len({0, EXIT_INPUT_ERROR, EXIT_BUDGET_EXHAUSTED}) == 3

    @pytest.mark.parametrize("flags", [
        ["--resume"],
        ["--checkpoint-dir", "ckpt"],
        ["--checkpoint-every", "2"],
        ["--checkpoint-dir=ckpt", "--resume"],
        ["--eval-cache-dir", "cache"],
    ], ids=["resume", "checkpoint-dir", "checkpoint-every", "both", "eval-cache-dir"])
    def test_retired_checkpoint_flags_exit_2(self, capsys, corpus, flags):
        code, captured = run(
            capsys, "match",
            str(corpus / "adversarial_a.csv"), str(corpus / "adversarial_b.csv"),
            "--composite", *flags,
        )
        assert code == EXIT_INPUT_ERROR
        assert "--store PATH" in captured.err
        assert captured.out == ""

    def test_unreadable_fault_plan_exits_2(self, capsys, corpus, tmp_path):
        bad_plan = tmp_path / "plan.json"
        bad_plan.write_text("{not json")
        code, captured = run(
            capsys, "match",
            str(corpus / "adversarial_a.csv"), str(corpus / "adversarial_b.csv"),
            "--composite", "--fault-plan", str(bad_plan),
        )
        assert code == EXIT_INPUT_ERROR
        assert "fault plan" in captured.err

    def test_interrupted_run_resumes_from_eval_cache(
        self, capsys, tmp_path, wide_pair
    ):
        first, second = tmp_path / "wide_a.csv", tmp_path / "wide_b.csv"
        write_csv(wide_pair[0], first)
        write_csv(wide_pair[1], second)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"specs": [
            {"site": "search.round", "kind": "interrupt", "round": 2},
        ]}))
        store, metrics = tmp_path / "match.db", tmp_path / "metrics.prom"
        argv = (
            "match", str(first), str(second), "--composite",
            "--delta", "0.001", "--json",
        )
        code, captured = run(capsys, *argv)
        assert code == 0
        uninterrupted = json.loads(captured.out)

        code, captured = run(
            capsys, *argv, "--store", str(store), "--fault-plan", str(plan),
        )
        assert code == 0
        interrupted = json.loads(captured.out)
        assert interrupted["runtime"]["reason"] == "interrupted"
        connection = sqlite3.connect(store)
        assert connection.execute("SELECT COUNT(*) FROM evaluations").fetchone()[0]
        connection.close()

        code, captured = run(
            capsys, *argv, "--store", str(store), "--metrics-out", str(metrics),
        )
        assert code == 0
        resumed = json.loads(captured.out)
        for name in ("objective", "correspondences", "diagnostics"):
            assert resumed[name] == uninterrupted[name]
        assert resumed["runtime"]["stage"] == "exact"
        hits = [
            line for line in metrics.read_text().splitlines()
            if line.startswith("eval_cache_hits_total ")
        ]
        assert hits and float(hits[0].split()[1]) > 0


class TestDeadLetterCLI:
    def test_skip_mode_archives_dropped_rows(self, capsys, corpus, tmp_path):
        dead = tmp_path / "dead"
        code, captured = run(
            capsys, "match",
            str(corpus / "garbage_rows.csv"), str(corpus / "garbage_rows.csv"),
            "--on-error", "skip", "--dead-letter-dir", str(dead), "--json",
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["ingestion"]["first"]["archived"] > 0
        contexts = list(dead.rglob("context.json"))
        assert contexts
        document = json.loads(contexts[0].read_text())
        assert document["occurrences"][0]["mode"] == "skip"

    def test_unparseable_file_archived_whole(self, capsys, corpus, tmp_path):
        dead = tmp_path / "dead"
        code, _ = run(
            capsys, "match",
            str(corpus / "truncated.xes"), str(corpus / "truncated.xes"),
            "--dead-letter-dir", str(dead),
        )
        assert code == EXIT_INPUT_ERROR
        payloads = list(dead.rglob("payload.bin"))
        assert len(payloads) == 1
        assert payloads[0].read_bytes() == (corpus / "truncated.xes").read_bytes()

    def test_without_flag_nothing_is_archived(self, capsys, corpus, tmp_path):
        code, _ = run(
            capsys, "match",
            str(corpus / "garbage_rows.csv"), str(corpus / "garbage_rows.csv"),
            "--on-error", "skip",
        )
        assert code == 0
        assert not list(tmp_path.iterdir())


class TestMarkdownReport:
    def test_report_includes_runtime_and_ingestion(self, capsys, corpus, tmp_path):
        destination = tmp_path / "report.md"
        code, _ = run(
            capsys, "match",
            str(corpus / "garbage_rows.csv"), str(corpus / "garbage_rows.csv"),
            "--on-error", "skip", "--timeout", "0",
            "--report", str(destination),
        )
        assert code == 0
        text = destination.read_text(encoding="utf-8")
        assert "## Runtime" in text
        assert "## Ingestion" in text
        assert "dropped" in text
