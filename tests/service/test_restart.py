"""Kill-and-restart: SIGTERM mid-job, restart, resume from the store.

Drives the real daemon as a subprocess (``python -m repro serve``).  The
in-flight composite job is interrupted deterministically by an inline
fault plan (the scripted equivalent of a SIGTERM landing at a round
boundary) after its first round filled the ``evaluations`` table of
the daemon's ``match.db``, and parks as ``running``; the daemon then
receives a real SIGTERM.  A second daemon life over the same store
directory must re-queue the job, replay the finished round from the
store, and finish with a result bit-identical to an uninterrupted run.
A pair-budgeted job, which does not read stored evaluations, goes
through two in-process scheduler lives on one store and must end where
an uninterrupted run under the same budget ends.
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

from repro.cli import main
from repro.core.config import EMSConfig
from repro.matchers import EMSCompositeMatcher
from repro.request import MatchRequest
from repro.runtime import DeadLetterArchive
from repro.service import READY_FILE, JobQueue, JobScheduler

from .conftest import http

#: A pair budget the wide pair's uninterrupted search runs out of in its
#: second round, after one accepted merge.
PAIR_BUDGET = 4032


def start_daemon(store_dir):
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[2] / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store-dir", str(store_dir),
         "--poll-interval", "0.05"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    ready = Path(store_dir) / READY_FILE
    deadline = time.time() + 60
    while time.time() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"daemon died on startup: {process.stderr.read().decode()}"
            )
        if ready.exists():
            try:
                document = json.loads(ready.read_text())
            except ValueError:  # torn read, retry
                continue
            if document.get("pid") == process.pid:
                return process, f"http://{document['host']}:{document['port']}"
        time.sleep(0.05)
    process.kill()
    raise AssertionError("daemon never wrote its ready file")


def stop_daemon(process, sig=signal.SIGTERM, timeout=60):
    process.send_signal(sig)
    try:
        process.wait(timeout=timeout)
    finally:
        if process.poll() is None:
            process.kill()


def _evaluation_rows(store_dir):
    """Rows in the daemon store's ``evaluations`` table (0 before it exists)."""
    path = store_dir / "match.db"
    if not path.exists():
        return 0
    connection = sqlite3.connect(path)
    try:
        return connection.execute("SELECT COUNT(*) FROM evaluations").fetchone()[0]
    except sqlite3.OperationalError:  # table not created yet, or locked
        return 0
    finally:
        connection.close()


def _counter(metrics_text, name):
    for line in metrics_text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


def test_sigterm_mid_job_resumes_from_eval_cache(tmp_path, wide_csv_pair):
    store_dir = tmp_path / "store"
    spec = {
        "log_first": str(wide_csv_pair[0]),
        "log_second": str(wide_csv_pair[1]),
        "composite": True,
        "delta": 0.001,
        # Interrupt at the round-2 boundary of attempt 1 — exactly what
        # a SIGTERM landing mid-search does, made deterministic.
        "fault_plan": {
            "specs": [{"site": "search.round", "kind": "interrupt", "round": 2}]
        },
    }

    # Life 1: submit, let the fault trip the job mid-run.
    process, base = start_daemon(store_dir)
    try:
        status, submitted = http("POST", f"{base}/jobs", spec)
        assert status == 201
        job_id = submitted["id"]
        # The interrupted job parks as `running` (never done/failed).
        deadline = time.time() + 60
        parked = None
        while time.time() < deadline:
            status, parked = http("GET", f"{base}/jobs/{job_id}")
            assert parked["state"] in ("queued", "running"), (
                f"job ended {parked['state']} in life 1: {parked['error']}"
            )
            if parked["state"] == "running" and parked["attempts"] == 1:
                if _evaluation_rows(store_dir):
                    break  # round 1 is in the store
            time.sleep(0.05)
        assert parked is not None and parked["state"] == "running"
        assert _evaluation_rows(store_dir), (
            "no evaluation was stored before the interrupt"
        )
    finally:
        stop_daemon(process)  # the real SIGTERM

    # Between lives the job table still says `running`: the daemon went
    # down with work in flight, which is the whole point.
    # Life 2: recovery re-queues it; the resumed attempt completes.
    process, base = start_daemon(store_dir)
    try:
        deadline = time.time() + 120
        document = None
        while time.time() < deadline:
            status, document = http("GET", f"{base}/jobs/{job_id}")
            assert status == 200
            if document["state"] in ("done", "failed", "dead"):
                break
            time.sleep(0.1)
        assert document is not None and document["state"] == "done", (
            f"job did not resume: {document}"
        )
        assert document["attempts"] == 2  # one per daemon life
        status, result_document = http("GET", f"{base}/jobs/{job_id}/result")
        assert status == 200
        result = result_document["result"]
        status, metrics = http("GET", f"{base}/metrics")
        assert status == 200
        # The second life replayed the first life's round from the store.
        assert _counter(metrics, "eval_cache_hits_total") > 0
    finally:
        stop_daemon(process)

    # Bit-identical to an uninterrupted in-process run.
    from repro.cli import load_log

    outcome = EMSCompositeMatcher(EMSConfig(alpha=1.0), delta=0.001).match(
        load_log(str(wide_csv_pair[0])), load_log(str(wide_csv_pair[1]))
    )
    assert result["objective"] == outcome.objective
    expected = sorted(
        [{"left": sorted(c.left), "right": sorted(c.right)}
         for c in outcome.correspondences],
        key=str,
    )
    assert sorted(result["correspondences"], key=str) == expected
    assert result["runtime"]["stage"] == "exact"


def _wait_for(queue, job_id, states, timeout=120):
    deadline = time.monotonic() + timeout
    job = queue.get(job_id)
    while job.state not in states:
        assert time.monotonic() < deadline, f"job stuck in {job.state}"
        time.sleep(0.02)
        job = queue.get(job_id)
    return job


def _scheduler(queue, store_dir):
    return JobScheduler(
        queue, store_dir, DeadLetterArchive(store_dir / "deadletters"),
        poll_interval=0.01,
    )


def test_budgeted_job_restarts_cold_after_interrupt(
    tmp_path, wide_csv_pair, csv_pair, capsys
):
    # A pair-budgeted job never reads stored evaluations, so its re-run
    # after an interrupt spends the whole budget again from round 1 and
    # ends exactly where an uninterrupted run under that budget ends.
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    budgeted = MatchRequest.from_json({
        "log_first": str(wide_csv_pair[0]),
        "log_second": str(wide_csv_pair[1]),
        "composite": True,
        "delta": 0.001,
        "pair_budget": PAIR_BUDGET,
        "fault_plan": {
            "specs": [{"site": "search.round", "kind": "interrupt", "round": 2}]
        },
    })
    marker = MatchRequest.from_json(
        {"log_first": str(csv_pair[0]), "log_second": str(csv_pair[1])}
    )

    # Life 1: the one worker parks the budgeted job at the round-2
    # boundary, and only then claims the marker job queued behind it.
    queue = JobQueue(store_dir / "jobs.db")
    scheduler = _scheduler(queue, store_dir)
    scheduler.start()
    try:
        record, _ = queue.submit(budgeted, source="test")
        _wait_for(queue, record.id, ("running",))
        behind, _ = queue.submit(marker, source="test")
        _wait_for(queue, behind.id, ("done",))
    finally:
        scheduler.stop()
        queue.close()

    # Life 2: recovery re-queues the parked job; it runs to the end.
    queue = JobQueue(store_dir / "jobs.db")
    assert queue.get(record.id).state == "running"
    assert queue.recover() == 1
    scheduler = _scheduler(queue, store_dir)
    scheduler.start()
    try:
        job = _wait_for(queue, record.id, ("done", "failed", "dead"))
    finally:
        scheduler.stop()
        queue.close()
    assert job.state == "done", job.error
    assert job.attempts == 2

    assert main([
        "match", str(wide_csv_pair[0]), str(wide_csv_pair[1]), "--composite",
        "--delta", "0.001", "--pair-budget", str(PAIR_BUDGET), "--json",
    ]) == 0
    cli = json.loads(capsys.readouterr().out)
    assert cli["runtime"]["stage"] == "partial"
    result = job.result
    assert result["runtime"]["stage"] == cli["runtime"]["stage"]
    assert result["runtime"]["reason"] == cli["runtime"]["reason"]
    assert result["diagnostics"] == cli["diagnostics"]
    assert result["diagnostics"]["composites_accepted"] == 1
    assert result["objective"] == cli["objective"]
    assert sorted(result["correspondences"], key=str) == sorted(
        cli["correspondences"], key=str
    )
