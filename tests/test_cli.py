"""Tests for the command line interface."""

import json

import pytest

from repro.cli import load_log, main
from repro.logs.csvio import write_csv
from repro.logs.xes import write_xes
from repro.synthesis.examples import figure1_logs


@pytest.fixture()
def log_paths(tmp_path):
    log_first, log_second, _ = figure1_logs()
    path_first = tmp_path / "first.xes"
    path_second = tmp_path / "second.xes"
    write_xes(log_first, path_first)
    write_xes(log_second, path_second)
    return str(path_first), str(path_second)


class TestLoadLog:
    def test_auto_detect_xes(self, log_paths):
        log = load_log(log_paths[0])
        assert log.activities() == frozenset("ABCDEF")

    def test_auto_detect_csv(self, tmp_path):
        log_first, _, _ = figure1_logs()
        path = tmp_path / "log.csv"
        write_csv(log_first, path)
        assert load_log(str(path)).activities() == frozenset("ABCDEF")

    def test_unknown_extension_rejected(self, tmp_path):
        from repro.exceptions import LogFormatError

        path = tmp_path / "log.bin"
        path.write_bytes(b"")
        with pytest.raises(LogFormatError):
            load_log(str(path))


class TestMatchCommand:
    def test_plain_output(self, log_paths, capsys):
        exit_code = main(["match", *log_paths])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "EMS" in output
        assert "<->" in output

    def test_json_output(self, log_paths, capsys):
        exit_code = main(["match", *log_paths, "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matcher"] == "EMS"
        assert payload["correspondences"]
        pairs = {
            (entry["left"][0], entry["right"][0])
            for entry in payload["correspondences"]
            if len(entry["left"]) == 1
        }
        assert ("A", "2") in pairs  # dislocated match found from the CLI too

    def test_composite_flag(self, log_paths, capsys):
        exit_code = main(
            ["match", *log_paths, "--composite", "--delta", "0.005", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        lefts = [tuple(sorted(e["left"])) for e in payload["correspondences"]]
        assert ("C", "D") in lefts

    @pytest.mark.parametrize(
        "flag", ["--workers", "--parallel-ingest", "--task-timeout"]
    )
    def test_retired_pool_flags_rejected(self, log_paths, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["match", *log_paths, "--composite", flag, "2"])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_estimate_flag(self, log_paths, capsys):
        assert main(["match", *log_paths, "--estimate", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matcher"] == "EMS+es"

    def test_threshold_flag(self, log_paths, capsys):
        assert main(["match", *log_paths, "--threshold", "0.99"]) == 0
        assert "no correspondences" in capsys.readouterr().out

    def test_kernel_flag_rejects_unknown(self, log_paths, capsys):
        # The fixpoint kernel is not selectable.
        with pytest.raises(SystemExit):
            main(["match", *log_paths, "--kernel", "gpu"])
        assert "--kernel" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--alpha", "2"], ["--estimate", "-1"], ["--composite", "--delta", "-1"]],
        ids=["alpha", "estimate", "delta"],
    )
    def test_out_of_range_knob_is_input_error(self, log_paths, capsys, flags):
        assert main(["match", *log_paths, *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_dtype_flag(self, log_paths, capsys):
        assert main(["match", *log_paths, "--json"]) == 0
        wide = json.loads(capsys.readouterr().out)
        assert main(["match", *log_paths, "--dtype", "float32", "--json"]) == 0
        narrow = json.loads(capsys.readouterr().out)
        assert narrow["correspondences"] == wide["correspondences"]
        assert narrow["objective"] == pytest.approx(wide["objective"], abs=1e-5)

    def test_dtype_flag_rejects_unknown(self, log_paths, capsys):
        with pytest.raises(SystemExit):
            main(["match", *log_paths, "--dtype", "float16"])
        assert "--dtype" in capsys.readouterr().err

    def test_explicit_format_flag(self, tmp_path, capsys):
        from repro.logs.csvio import write_csv
        from repro.synthesis.examples import figure1_logs

        log_first, log_second, _ = figure1_logs()
        # Extensions lie about the content; --format must override.
        path_first = tmp_path / "first.dat"
        path_second = tmp_path / "second.dat"
        with open(path_first, "w", newline="", encoding="utf-8") as handle:
            write_csv(log_first, handle)
        with open(path_second, "w", newline="", encoding="utf-8") as handle:
            write_csv(log_second, handle)
        exit_code = main(
            ["match", str(path_first), str(path_second), "--format", "csv"]
        )
        assert exit_code == 0
        assert "<->" in capsys.readouterr().out

    def test_labels_flag_sets_blended_alpha(self, log_paths, capsys):
        exit_code = main(["match", *log_paths, "--labels", "--json"])
        assert exit_code == 0
        import json as json_module

        payload = json_module.loads(capsys.readouterr().out)
        assert payload["correspondences"]

    def test_alpha_flag_overrides(self, log_paths, capsys):
        exit_code = main(["match", *log_paths, "--labels", "--alpha", "0.9", "--json"])
        assert exit_code == 0

    def test_report_flag_writes_markdown(self, log_paths, tmp_path, capsys):
        report_path = tmp_path / "report.md"
        assert main(["match", *log_paths, "--report", str(report_path)]) == 0
        content = report_path.read_text(encoding="utf-8")
        assert content.startswith("# Event matching report")
        assert "## Correspondences" in content


class TestScaledMatch:
    """``--store`` routes the match through the out-of-core pipeline —
    same answer, graph-only."""

    def baseline(self, log_paths, capsys):
        assert main(["match", *log_paths, "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def normalize(self, payload):
        return (
            payload["objective"],
            sorted(
                (tuple(e["left"]), tuple(e["right"]))
                for e in payload["correspondences"]
            ),
        )

    @pytest.mark.parametrize("argv", [
        ["match", "FIRST", "SECOND", "--shard-traces", "2"],
        ["stats", "FIRST", "--shard-traces=2"],
    ], ids=["match", "stats"])
    def test_retired_shard_traces_flag_exits_2(self, log_paths, capsys, argv):
        paths = {"FIRST": log_paths[0], "SECOND": log_paths[1]}
        assert main([paths.get(arg, arg) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert "--store" in captured.err
        assert "stats streams on its own" in captured.err
        assert captured.out == ""

    def test_store_warm_run_matches_cold(self, log_paths, tmp_path, capsys):
        reference = self.baseline(log_paths, capsys)
        store = tmp_path / "store.db"
        assert main(["match", *log_paths, "--store", str(store), "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert store.exists()
        assert cold["provenance"]["ingest_modes"] == ["streamed", "streamed"]
        assert self.normalize(cold) == self.normalize(reference)
        assert main(["match", *log_paths, "--store", str(store), "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert self.normalize(warm) == self.normalize(cold)

    def test_composite_store_run_equals_storeless_and_hits(
        self, log_paths, tmp_path, capsys
    ):
        # --composite --store memoizes the search's evaluations in the
        # store: same answer as a store-less composite run, and a second
        # run is served from the evaluations table.
        def composite(*extra):
            assert main(["match", *log_paths, "--composite", "--json", *extra]) == 0
            payload = json.loads(capsys.readouterr().out)
            payload["runtime"].pop("wall_time")
            return payload

        store, metrics = tmp_path / "s.db", tmp_path / "metrics.prom"
        storeless = composite()
        assert composite("--store", str(store)) == storeless
        assert composite("--store", str(store), "--metrics-out", str(metrics)) == storeless
        hits = [
            line for line in metrics.read_text().splitlines()
            if line.startswith("eval_cache_hits_total ")
        ]
        assert hits and float(hits[0].split()[1]) > 0

    def test_report_incompatible_with_scale_flags(self, log_paths, tmp_path, capsys):
        code = main(
            ["match", *log_paths, "--store", str(tmp_path / "s.db"),
             "--report", str(tmp_path / "r.md")]
        )
        assert code == 2

    def test_scaled_metrics_exported(self, log_paths, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        store = tmp_path / "store.db"
        assert main(
            ["match", *log_paths,
             "--store", str(store), "--metrics-out", str(metrics)]
        ) == 0
        text = metrics.read_text()
        assert "store_misses_total" in text


class TestStatsCommand:
    def test_text_output(self, log_paths, capsys):
        assert main(["stats", log_paths[0]]) == 0
        out = capsys.readouterr().out
        assert "6 activities" in out
        assert "[streamed]" in out

    def test_json_output(self, log_paths, capsys):
        assert main(["stats", log_paths[0], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "streamed"
        assert payload["activities"] == 6
        assert set(payload["activity_frequencies"]) == set("ABCDEF")
        assert payload["ingestion"]["clean"] is True

    def test_store_round_trip(self, log_paths, tmp_path, capsys):
        store = tmp_path / "store.db"
        assert main(["stats", log_paths[0], "--store", str(store), "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["mode"] == "streamed"
        assert main(["stats", log_paths[0], "--store", str(store), "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["mode"] == "store"
        assert warm["activity_frequencies"] == cold["activity_frequencies"]

    def test_top_limits_text_listing(self, log_paths, capsys):
        assert main(["stats", log_paths[0], "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "... and 4 more" in out

    def test_negative_top_rejected(self, log_paths, capsys):
        assert main(["stats", log_paths[0], "--top", "-1"]) == 2

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "absent.xes")]) == 2


class TestMatchStoreCLI:
    """The warm ``match --store`` path and its JSON provenance."""

    def csv_paths(self, tmp_path):
        log_first, log_second, _ = figure1_logs()
        path_first = tmp_path / "first.csv"
        path_second = tmp_path / "second.csv"
        write_csv(log_first, path_first)
        write_csv(log_second, path_second)
        return str(path_first), str(path_second)

    def test_match_mode_provenance(self, log_paths, tmp_path, capsys):
        store = tmp_path / "store.db"
        assert main(["match", *log_paths, "--store", str(store), "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["provenance"]["match_mode"] == "computed"
        assert main(["match", *log_paths, "--store", str(store), "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["provenance"]["match_mode"] == "store"
        assert warm["provenance"]["matrix_key"] == cold["provenance"]["matrix_key"]
        assert warm["objective"] == cold["objective"]

    def test_store_hit_noted_in_text_output(self, log_paths, tmp_path, capsys):
        store = tmp_path / "store.db"
        assert main(["match", *log_paths, "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["match", *log_paths, "--store", str(store)]) == 0
        assert "[match store: store]" in capsys.readouterr().out

    def test_partial_hit_after_append(self, tmp_path, capsys):
        paths = self.csv_paths(tmp_path)
        store = tmp_path / "store.db"
        assert main(["match", *paths, "--store", str(store), "--json"]) == 0
        capsys.readouterr()
        with open(paths[0], "a") as handle:
            handle.write("case-new-1,A,99.0\ncase-new-1,B,100.0\n")
        assert main(["match", *paths, "--store", str(store), "--json"]) == 0
        grown = json.loads(capsys.readouterr().out)
        # The grown side's counts come from the append fast path, then
        # the fixpoint runs cold.
        assert grown["provenance"]["match_mode"] == "computed"
        assert grown["provenance"]["ingest_modes"][0] == "store-append"
        # Bit-identical to matching the grown pair without any store.
        assert main(["match", *paths, "--json"]) == 0
        reference = json.loads(capsys.readouterr().out)
        assert grown["objective"] == reference["objective"]
        assert grown["correspondences"] == reference["correspondences"]
        # And the grown pair's matrix was stored: the next call is a hit.
        assert main(["match", *paths, "--store", str(store), "--json"]) == 0
        served = json.loads(capsys.readouterr().out)
        assert served["provenance"]["match_mode"] == "store"
        assert served["objective"] == reference["objective"]

    def test_match_store_metrics_exported(self, log_paths, tmp_path, capsys):
        store = tmp_path / "store.db"
        metrics = tmp_path / "metrics.prom"
        assert main(["match", *log_paths, "--store", str(store)]) == 0
        assert main(
            ["match", *log_paths, "--store", str(store),
             "--metrics-out", str(metrics)]
        ) == 0
        assert "match_store_hits_total 1" in metrics.read_text()


class TestStatsFromStore:
    def test_round_trip_matches_ingested(self, log_paths, tmp_path, capsys):
        store = tmp_path / "store.db"
        assert main(["stats", log_paths[0], "--store", str(store), "--json"]) == 0
        ingested = json.loads(capsys.readouterr().out)
        assert main(
            ["stats", log_paths[0], "--store", str(store),
             "--from-store", "--json"]
        ) == 0
        served = json.loads(capsys.readouterr().out)
        assert served["mode"] == "store"
        assert served["trace_count"] == ingested["trace_count"]
        assert served["activity_frequencies"] == ingested["activity_frequencies"]
        assert served["pair_frequencies"] == ingested["pair_frequencies"]

    def test_answers_without_the_file(self, log_paths, tmp_path, capsys):
        store = tmp_path / "store.db"
        assert main(["stats", log_paths[0], "--store", str(store)]) == 0
        capsys.readouterr()
        import os

        os.unlink(log_paths[0])  # the file is gone; the store still answers
        assert main(
            ["stats", log_paths[0], "--store", str(store), "--from-store"]
        ) == 0
        assert "[store]" in capsys.readouterr().out

    def test_requires_store_flag(self, log_paths, capsys):
        assert main(["stats", log_paths[0], "--from-store"]) == 2
        assert "--from-store requires --store" in capsys.readouterr().err

    def test_unknown_path_is_an_input_error(self, log_paths, tmp_path, capsys):
        store = tmp_path / "store.db"
        assert main(["stats", log_paths[0], "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(
            ["stats", log_paths[1], "--store", str(store), "--from-store"]
        ) == 2
        assert "no stored counts" in capsys.readouterr().err
