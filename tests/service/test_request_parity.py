"""The CLI and the daemon run the same request.

Both front ends decode their knobs into one ``MatchRequest`` and run it
through ``run_match``.  Here every job spec field, set to a non-default
value, goes through ``repro match --json`` and through a
``JobScheduler`` on its own store; the two must agree bit for bit.  The
out-of-range table is likewise shared: both front ends reject it.
"""

import json
import sqlite3
import time

import pytest

from repro.cli import main
from repro.exceptions import JobSpecError
from repro.request import MatchRequest
from repro.runtime import DeadLetterArchive
from repro.service import JobQueue, JobScheduler

#: An interrupt at a round the search never reaches: the plan is
#: attached and decoded on both front ends, and the run completes.
FAULT_PLAN = {"specs": [{"site": "search.round", "kind": "interrupt", "round": 99}]}

#: (job spec fields, matching ``repro match`` flags); "{plan}" is the
#: path of FAULT_PLAN written to disk.
CASES = {
    "format": ({"format": "csv"}, ["--format", "csv"]),
    "on_error": ({"on_error": "skip"}, ["--on-error", "skip"]),
    "labels": ({"labels": True}, ["--labels"]),
    "alpha": ({"alpha": 0.7}, ["--alpha", "0.7"]),
    "threshold": ({"threshold": 0.2}, ["--threshold", "0.2"]),
    "estimate": ({"estimate": 1}, ["--estimate", "1"]),
    "timeout": ({"timeout": 600}, ["--timeout", "600"]),
    "pair_budget": ({"pair_budget": 40}, ["--pair-budget", "40"]),
    "composite": ({"composite": True}, ["--composite"]),
    "dtype": ({"dtype": "float32"}, ["--dtype", "float32"]),
    "degrade": ({"degrade": False}, ["--no-degrade"]),
    "delta": (
        {"composite": True, "delta": 0.001},
        ["--composite", "--delta", "0.001"],
    ),
    "fault_plan": (
        {"composite": True, "fault_plan": FAULT_PLAN},
        ["--composite", "--fault-plan", "{plan}"],
    ),
}

OUT_OF_RANGE = {
    "alpha": ({"alpha": 1.5}, ["--alpha", "1.5"]),
    "estimate": ({"estimate": -1}, ["--estimate", "-1"]),
    "timeout": ({"timeout": -1}, ["--timeout", "-1"]),
    "pair_budget": ({"pair_budget": -1}, ["--pair-budget", "-1"]),
    "delta": (
        {"composite": True, "delta": -0.5},
        ["--composite", "--delta", "-0.5"],
    ),
}


def run_cli(capsys, pair, flags, store):
    argv = ["match", str(pair[0]), str(pair[1]), "--json", *flags]
    if "--composite" not in flags:  # composite search needs the full logs
        argv += ["--store", str(store)]
    assert main(argv) == 0, capsys.readouterr().err
    return json.loads(capsys.readouterr().out)


def run_job(store_dir, submission, before_start=lambda: None):
    """Settle one job through a JobScheduler; returns its final record."""
    queue = JobQueue(store_dir / "jobs.db")
    scheduler = JobScheduler(
        queue, store_dir, DeadLetterArchive(store_dir / "deadletters"),
        poll_interval=0.01,
    )
    record, _ = queue.submit(MatchRequest.from_json(submission), source="test")
    before_start()
    scheduler.start()
    try:
        deadline = time.monotonic() + 120
        job = queue.get(record.id)
        while job.state in ("queued", "running"):
            assert time.monotonic() < deadline, "job never settled"
            time.sleep(0.02)
            job = queue.get(record.id)
    finally:
        scheduler.stop()
        queue.close()
    return job


def by_members(correspondences):
    return sorted(correspondences, key=str)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_and_daemon_agree(name, wide_csv_pair, tmp_path, capsys):
    fields, flags = CASES[name]
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(FAULT_PLAN))
    flags = [flag.format(plan=plan) for flag in flags]
    cli = run_cli(capsys, wide_csv_pair, flags, tmp_path / "cli.db")
    record = run_job(
        tmp_path / "daemon",
        {"log_first": str(wide_csv_pair[0]),
         "log_second": str(wide_csv_pair[1]), **fields},
    )
    assert record.state == "done", record.error
    job = record.result
    assert job["objective"] == cli["objective"]  # bitwise, not approx
    assert by_members(job["correspondences"]) == by_members(
        cli["correspondences"]
    )
    assert job["provenance"]["match_mode"] == cli["provenance"]["match_mode"]


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_both_front_ends_reject(name, wide_csv_pair, capsys):
    fields, flags = OUT_OF_RANGE[name]
    argv = ["match", str(wide_csv_pair[0]), str(wide_csv_pair[1]), *flags]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(JobSpecError):
        MatchRequest.from_json(
            {"log_first": str(wide_csv_pair[0]),
             "log_second": str(wide_csv_pair[1]), **fields}
        )


def test_queue_row_with_retired_workers_knob_still_runs(
    wide_csv_pair, tmp_path, capsys
):
    # A queue written by an older version stores composite specs with a
    # ``workers`` field.  Such a row must still decode and run, to the
    # same answer as the command line.
    store_dir = tmp_path / "daemon"

    def add_workers_to_stored_row():
        with sqlite3.connect(store_dir / "jobs.db") as connection:
            (spec,), = connection.execute("SELECT spec FROM jobs").fetchall()
            legacy = {**json.loads(spec), "workers": 2}
            connection.execute("UPDATE jobs SET spec = ?", (json.dumps(legacy),))

    record = run_job(
        store_dir,
        {"log_first": str(wide_csv_pair[0]),
         "log_second": str(wide_csv_pair[1]), "composite": True},
        before_start=add_workers_to_stored_row,
    )
    assert record.spec["workers"] == 2
    assert record.state == "done", record.error
    cli = run_cli(capsys, wide_csv_pair, ["--composite"], tmp_path / "cli.db")
    assert record.result["objective"] == cli["objective"]
    assert by_members(record.result["correspondences"]) == by_members(
        cli["correspondences"]
    )


def test_input_gone_at_run_time_fails_terminally(wide_csv_pair, tmp_path):
    # The runner decodes the stored spec again, file checks included: a
    # vanished input is an input error, not a transient one to retry.
    copy = tmp_path / "copy.csv"
    copy.write_bytes(wide_csv_pair[0].read_bytes())
    record = run_job(
        tmp_path / "daemon",
        {"log_first": str(copy), "log_second": str(wide_csv_pair[1])},
        before_start=copy.unlink,
    )
    assert record.state == "failed"
    assert record.attempts == 1
    assert "no such file" in record.error


def test_default_job_ids_unchanged(tmp_path):
    # ``dtype`` and ``degrade`` became job spec fields; the content key
    # hashed them before, so the id of a spec that leaves them at their
    # defaults must stay what it was.
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    first.write_text("case,activity\n1,x\n1,y\n")
    second.write_text("case,activity\n1,u\n1,v\n")
    spec = {"log_first": str(first), "log_second": str(second)}
    assert MatchRequest.from_json(spec).content_key() == (
        "6a616d194ec5ba2c5b22fb4388c8d4297d1c56c09023e8320ac4e39df65491b7"
    )
    assert MatchRequest.from_json({**spec, "composite": True}).content_key() == (
        "25fce16b4dfa527be5dda1abf02050d691cbfea2e34ca8ad90d5be8449eed450"
    )
    spelled = {**spec, "dtype": "float64", "degrade": True}
    assert MatchRequest.from_json(spelled).content_key() == (
        MatchRequest.from_json(spec).content_key()
    )
    assert MatchRequest.from_json({**spec, "dtype": "float32"}).content_key() != (
        MatchRequest.from_json(spec).content_key()
    )


def test_job_rejects_a_dtype_the_cli_rejects(wide_csv_pair):
    # argparse refuses ``--dtype float16`` (tests/test_cli.py); a job
    # spec takes its choices from the same tuple.
    with pytest.raises(JobSpecError) as error:
        MatchRequest.from_json(
            {"log_first": str(wide_csv_pair[0]),
             "log_second": str(wide_csv_pair[1]), "dtype": "float16"}
        )
    assert error.value.field == "dtype"
