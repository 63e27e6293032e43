"""``service_mix``: an open-loop job mix against the matching daemon.

The timed run starts ``python -m repro serve --workers 1`` over a fresh
store and drives it over HTTP from this process with at most two threads
(one sender, one poller; two clients in the capacity phase):

* **open loop** -- one job is due every ``1 / RATE`` seconds, whether or
  not earlier jobs are done.  Each job is timed from its due time to the
  moment its result was fetched, so a stall also charges the jobs queued
  behind it, and the sender's own lateness is reported.
* **capacity** -- afterwards, two clients in a closed loop run a fixed
  number of blocks of the same mix on pairs of their own; completed jobs
  over the phase's wall time is the daemon's capacity.

Jobs come in blocks of four kinds in a seeded order: a *new* pair (cold
ingest, fixpoint and store writes), the same pair state with a new
*threshold* (a matrix-store read), an exact *dedup* resubmission, and a
re-match after a file *grown* in place (the append path with a
warm-started fixpoint).  A file is never appended to while a job that
reads it is in flight: the append is deferred, counted, and still timed
from its due time.

Every served result is checked against the direct in-process answer for
the same file state -- ``EMSMatcher().match_graphs`` on ``ingest_graph``
of both files, computed after the timed phases -- bitwise on the
objective and exactly on the correspondences.

The traced run (``--trace 1``) repeats the open loop twice on fresh
copies of the inputs: against the real daemon, and against the same
daemon hosted by ``traced_daemon.py`` with a tracing observer, whose
spans give the layer breakdown.  Their ratio of busy time is the
tracing overhead.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.matchers import EMSMatcher
from repro.matching.evaluation import Correspondence, evaluate
from repro.obs import Span
from repro.store import ingest_graph

from inputs import GrowingLog, ServicePair, write_service_pairs
from measure import (
    RunResult,
    Tally,
    counter_values,
    layer_self_times,
    median,
    peak_rss_mb,
    quantile,
    ratio,
    spans_named,
)

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

KINDS = ("new", "threshold", "dedup", "grown")


@dataclass(frozen=True)
class MixSize:
    activities: int
    traces: int
    tail_traces: int
    tails: int
    #: Offered jobs per second of the open loop.
    rate: float
    #: Blocks of four jobs each capacity-phase client runs.
    capacity_blocks: int


#: 20 activities and 600 traces per log: a cold job is mostly ingest.
#: At 2 jobs/s the open loop keeps job_p95_s under the 2 s limit.
FULL = MixSize(activities=20, traces=600, tail_traces=40, tails=4,
               rate=2.0, capacity_blocks=3)
TINY = MixSize(activities=8, traces=30, tail_traces=5, tails=2,
               rate=8.0, capacity_blocks=1)

#: A job not fetched this long after its due time has failed.
JOB_TIMEOUT_S = 30.0
#: Seconds between sweeps of the result poller.
POLL_S = 0.005
#: Limit on the open loop's job_p95_s that the offered rate is chosen for.
JOB_P95_LIMIT_S = 2.0


# ----------------------------------------------------------------------
# The job schedule
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One job the generator submits, and what became of it."""

    index: int
    kind: str
    pair: int
    phase: str
    threshold: float = 0.0
    side: int = 0
    due: float = 0.0
    lag: float = 0.0
    submit_s: float = 0.0
    state: tuple[int, int] = (0, 0)
    spec_threshold: float = 0.0
    job_id: str | None = None
    deduped: bool = False
    fetched: float | None = None
    result: dict | None = None
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.fetched - self.due

    @property
    def provenance(self) -> str:
        if self.deduped:
            return "deduped"
        return self.result["provenance"]["match_mode"]


def build_schedule(rng: random.Random, blocks: int, tails: int,
                   first_pair: int, phase: str, counter: list[int]) -> list[Op]:
    """*blocks* blocks of the four kinds in seeded order, on pairs numbered
    from *first_pair* (a block's *new* job introduces the next one); each
    log of a pair can grow *tails* times.

    Targets are fixed here, from the seed alone: threshold, dedup and grown
    jobs pick among the pairs introduced so far.  A grown job whose pairs
    have no tail left becomes a threshold job.
    """
    ops: list[Op] = []
    introduced = 0
    tails_left: dict[int, list[int]] = {}
    for _ in range(blocks):
        kinds = list(KINDS)
        rng.shuffle(kinds)
        if introduced == 0:
            kinds.remove("new")
            kinds.insert(0, "new")
        for kind in kinds:
            if kind == "new":
                pair = first_pair + introduced
                introduced += 1
                tails_left[pair] = [tails, tails]
            else:
                pair = first_pair + rng.randrange(introduced)
            op = Op(len(ops), kind, pair, phase)
            if kind == "grown":
                growable = [p for p, left in tails_left.items() if any(left)]
                if not growable:
                    op.kind = "threshold"
                else:
                    if not any(tails_left[pair]):
                        pair = op.pair = growable[rng.randrange(len(growable))]
                    side = rng.randrange(2)
                    if not tails_left[pair][side]:
                        side = 1 - side
                    tails_left[pair][side] -= 1
                    op.side = side
            if op.kind == "threshold":
                counter[0] += 1
                op.threshold = 0.0005 * counter[0]
            ops.append(op)
    return ops


# ----------------------------------------------------------------------
# HTTP client and daemon process
# ----------------------------------------------------------------------
class Api:
    """One keep-alive HTTP connection to the daemon (one per thread)."""

    def __init__(self, host: str, port: int):
        self.address = (host, port)
        self._connection: http.client.HTTPConnection | None = None

    def call(self, method: str, path: str, document=None) -> tuple[int, bytes]:
        # The body goes out with the headers in one send; a separate send
        # would meet the peer's delayed ACK (Nagle) and add ~40 ms.
        body = None if document is None else json.dumps(document).encode()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        for attempt in (0, 1):
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    *self.address, timeout=JOB_TIMEOUT_S
                )
            try:
                self._connection.request(method, path, body=body, headers=headers)
                response = self._connection.getresponse()
                return response.status, response.read()
            except (http.client.HTTPException, OSError):
                # A dropped keep-alive connection: reconnect once.  A
                # repeated POST is harmless, submission is idempotent.
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def json(self, method: str, path: str, document=None) -> tuple[int, dict]:
        status, body = self.call(method, path, document)
        return status, json.loads(body) if body else {}

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


class Daemon:
    """A daemon process this benchmark starts, waits for, and stops."""

    def __init__(self, command: list[str], store_dir: Path, log_path: Path):
        self.command = command
        self.store_dir = store_dir
        self.log_path = log_path
        self.process: subprocess.Popen | None = None
        self.host = ""
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), environment.get("PYTHONPATH")])
        )
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                self.command, cwd=REPO_ROOT, env=environment,
                stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            )
        ready = self.store_dir / "service.json"
        deadline = time.monotonic() + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited at start-up: {self.log_tail()}")
            try:
                info = json.loads(ready.read_text())
                self.host, self.port = info["host"], int(info["port"])
                return
            except (OSError, ValueError, KeyError):
                pass  # not written yet (or half written)
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not become ready in time")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self, timeout: float = 30.0) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process = None

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""


def serve_command(store_dir: Path) -> list[str]:
    return [sys.executable, "-m", "repro", "serve", "--store-dir", str(store_dir),
            "--workers", "1"]


def traced_command(store_dir: Path, dump: Path) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "traced_daemon.py"), str(store_dir),
            str(dump)]


# ----------------------------------------------------------------------
# Submitting one job
# ----------------------------------------------------------------------
class Submitter:
    """Turns an :class:`Op` into a POST /jobs (appending first if grown)."""

    def __init__(self, pairs: list[ServicePair]):
        self.pairs = pairs
        self.last_spec: dict[int, dict] = {}

    def submit(self, api: Api, op: Op) -> None:
        pair = self.pairs[op.pair]
        if op.kind == "dedup":
            spec = self.last_spec[op.pair]
        else:
            if op.kind == "grown":
                pair.logs[op.side].append_next()
            spec = {
                "log_first": str(pair.logs[0].path),
                "log_second": str(pair.logs[1].path),
                "threshold": op.threshold,
            }
            self.last_spec[op.pair] = spec
        op.state = pair.state()
        op.spec_threshold = spec["threshold"]
        started = time.monotonic()
        status, document = api.json("POST", "/jobs", spec)
        op.submit_s = time.monotonic() - started
        if status not in (200, 201):
            raise RuntimeError(f"POST /jobs answered {status}: {document}")
        op.job_id = document["id"]
        op.deduped = bool(document.get("deduped"))


def fetch_result(api: Api, job_id: str) -> tuple[bool, dict | None, str | None]:
    """``(settled, result, error)`` of one job, by one GET."""
    status, document = api.json("GET", f"/jobs/{job_id}/result")
    if status == 200:
        return True, document["result"], None
    if status == 409:
        state = document.get("state")
        if state in ("failed", "dead"):
            return True, None, f"job {job_id} is {state}"
        return False, None, None
    return True, None, f"GET result answered {status}"


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
class OpenLoop:
    """Sender (the calling thread) plus one poller thread."""

    def __init__(self, daemon: Daemon, ops: list[Op], submitter: Submitter,
                 rate: float):
        self.daemon = daemon
        self.ops = ops
        self.submitter = submitter
        self.rate = rate
        self.deferrals = 0
        self._condition = threading.Condition()
        self._waiting: dict[str, list[Op]] = {}
        self._busy: dict[int, int] = {}
        self._stop = threading.Event()

    def run(self) -> None:
        poller = threading.Thread(target=self._poll, name="perfbench-poller")
        poller.start()
        api = Api(self.daemon.host, self.daemon.port)
        try:
            self._send(api)
            self._drain()
        finally:
            self._stop.set()
            poller.join(timeout=JOB_TIMEOUT_S + 10)
            api.close()
        if poller.is_alive():
            raise RuntimeError("result poller did not stop")

    def _send(self, api: Api) -> None:
        start = time.monotonic() + 0.05
        for op in self.ops:
            op.due = start + op.index / self.rate
        pending = list(reversed(self.ops))
        deferred: list[Op] = []
        while pending or deferred:
            with self._condition:
                ready = [op for op in deferred if not self._busy.get(op.pair)]
                for op in ready:
                    deferred.remove(op)
                now = time.monotonic()
                due = pending and pending[-1].due <= now
                if not ready and not due:
                    wake = pending[-1].due - now if pending else JOB_TIMEOUT_S
                    self._condition.wait(timeout=min(wake, 0.05))
                    continue
            for op in ready:
                self._dispatch(api, op)
            if due:
                op = pending.pop()
                op.lag = time.monotonic() - op.due
                if op.kind == "grown" and self._busy.get(op.pair):
                    deferred.append(op)
                    self.deferrals += 1
                else:
                    self._dispatch(api, op)

    def _dispatch(self, api: Api, op: Op) -> None:
        try:
            self.submitter.submit(api, op)
        except Exception as error:  # noqa: BLE001 - a failed job is counted
            op.error = f"submit: {type(error).__name__}: {error}"
            op.fetched = time.monotonic()
            return
        with self._condition:
            self._waiting.setdefault(op.job_id, []).append(op)
            self._busy[op.pair] = self._busy.get(op.pair, 0) + 1

    def _settle(self, job_id: str, result, error, now: float) -> None:
        with self._condition:
            for op in self._waiting.pop(job_id, []):
                op.fetched, op.result, op.error = now, result, error
                self._busy[op.pair] -= 1
            self._condition.notify_all()

    def _poll(self) -> None:
        api = Api(self.daemon.host, self.daemon.port)
        try:
            while not self._stop.is_set():
                with self._condition:
                    waiting = {job: list(ops) for job, ops in self._waiting.items()}
                for job_id, ops in waiting.items():
                    settled, result, error = fetch_result(api, job_id)
                    now = time.monotonic()
                    if not settled and now - min(op.due for op in ops) > JOB_TIMEOUT_S:
                        settled, error = True, f"job {job_id} timed out"
                    if settled:
                        self._settle(job_id, result, error, now)
                self._stop.wait(POLL_S)
        except Exception as error:  # noqa: BLE001 - fail what is left
            with self._condition:
                jobs = list(self._waiting)
            for job_id in jobs:
                self._settle(job_id, None, f"poller: {error}", time.monotonic())
        finally:
            api.close()

    def _drain(self) -> None:
        deadline = time.monotonic() + JOB_TIMEOUT_S + 5
        with self._condition:
            while self._waiting and time.monotonic() < deadline:
                self._condition.wait(timeout=0.05)


# ----------------------------------------------------------------------
# Capacity phase: two clients in a closed loop
# ----------------------------------------------------------------------
def closed_client(daemon: Daemon, ops: list[Op], submitter: Submitter) -> None:
    api = Api(daemon.host, daemon.port)
    try:
        for op in ops:
            op.due = time.monotonic()
            try:
                submitter.submit(api, op)
                while True:
                    settled, result, error = fetch_result(api, op.job_id)
                    if settled or time.monotonic() - op.due > JOB_TIMEOUT_S:
                        op.result = result
                        op.error = error if settled else "timed out"
                        break
                    time.sleep(POLL_S)
            except Exception as error:  # noqa: BLE001 - a failed job is counted
                op.error = f"{type(error).__name__}: {error}"
            op.fetched = time.monotonic()
    finally:
        api.close()


def capacity_phase(daemon: Daemon, per_client: list[list[Op]],
                   submitter: Submitter) -> float:
    """Run both clients to completion; returns the phase's wall seconds."""
    started = time.monotonic()
    helper = threading.Thread(
        target=closed_client, args=(daemon, per_client[1], submitter),
        name="perfbench-client",
    )
    helper.start()
    closed_client(daemon, per_client[0], submitter)
    helper.join(timeout=JOB_TIMEOUT_S * len(per_client[1]) + 10)
    if helper.is_alive():
        raise RuntimeError("capacity client did not finish")
    return time.monotonic() - started


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
class Oracle:
    """Direct in-process answers per file state, computed after the run."""

    def __init__(self, directory: Path):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        self._graphs: dict[tuple, object] = {}
        self._answers: dict[tuple, tuple] = {}

    def _graph(self, pair: ServicePair, side: int, appended: int):
        key = (pair.name, side, appended)
        if key not in self._graphs:
            path = self.directory / f"{pair.name}-{side}-{appended}.csv"
            path.write_text(pair.logs[side].state_text(appended),
                            encoding="utf-8", newline="")
            self._graphs[key] = ingest_graph(path)[0]
        return self._graphs[key]

    def answer(self, pair: ServicePair, state: tuple[int, int],
               threshold: float) -> tuple:
        key = (pair.name, state, threshold)
        if key not in self._answers:
            self._answers[key] = direct_answer(
                self._graph(pair, 0, state[0]), self._graph(pair, 1, state[1]),
                threshold,
            )
        return self._answers[key]


def direct_answer(graph_first, graph_second, threshold: float) -> tuple:
    """``(objective, correspondences)`` of the in-process 1:1 match."""
    outcome = EMSMatcher(threshold=threshold).match_graphs(graph_first, graph_second)
    return outcome.objective, frozenset(
        (tuple(sorted(c.left)), tuple(sorted(c.right)))
        for c in outcome.correspondences
    )


def served_answer(result: dict) -> tuple:
    return result["objective"], frozenset(
        (tuple(c["left"]), tuple(c["right"])) for c in result["correspondences"]
    )


def verify(ops: list[Op], pairs: list[ServicePair], oracle: Oracle,
           tally: Tally) -> list[float]:
    """Count every op in *tally*; returns the f-measure of each good one."""
    scores = []
    for op in ops:
        tally.attempt()
        where = f"{op.phase} job {op.index} ({op.kind})"
        if op.error is not None or op.result is None:
            tally.fail(f"{where}: {op.error or 'no result'}")
            continue
        pair = pairs[op.pair]
        expected = oracle.answer(pair, op.state, op.spec_threshold)
        if served_answer(op.result) != expected:
            tally.fail(f"{where}: served answer differs from the direct answer")
            continue
        found = [
            Correspondence(frozenset(c["left"]), frozenset(c["right"]))
            for c in op.result["correspondences"]
        ]
        scores.append(evaluate(pair.truth, found).f_measure)
    return scores


# ----------------------------------------------------------------------
# Job timeline (from the job documents)
# ----------------------------------------------------------------------
def job_documents(api: Api) -> list[dict]:
    status, document = api.json("GET", "/jobs")
    if status != 200:
        raise RuntimeError(f"GET /jobs answered {status}")
    return document["jobs"]


def fifo_runs(jobs: list[dict]) -> list[tuple[dict, float, float]]:
    """``(job, start, run seconds)`` of done jobs, oldest first.

    One worker claims jobs oldest first, so a job starts when it was
    submitted or when the previous job finished, whichever is later.
    """
    runs = []
    previous_end = -math.inf
    for job in sorted(jobs, key=lambda job: job["submitted"]):
        if job["state"] != "done":
            continue
        start = max(job["submitted"], previous_end)
        runs.append((job, start, job["updated"] - start))
        previous_end = job["updated"]
    return runs


def queue_depth_max(jobs: list[dict], starts: dict[str, float]) -> int:
    """Most jobs ever waiting unclaimed, from submission and claim times."""
    deepest = 0
    for job in jobs:
        moment = job["submitted"]
        depth = sum(
            1 for other in jobs
            if other["id"] in starts
            and other["submitted"] <= moment < starts[other["id"]]
        )
        deepest = max(deepest, depth)
    return deepest


def directory_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def make_pairs(directory: Path, seed: int, size: MixSize, count: int):
    return write_service_pairs(
        directory, seed, count, size.activities, size.traces,
        size.tail_traces, size.tails,
    )


def fresh_copy(pairs: list[ServicePair], directory: Path) -> list[ServicePair]:
    """The same pairs in their initial state, as new files in *directory*."""
    directory.mkdir(parents=True, exist_ok=True)
    copies = []
    for pair in pairs:
        logs = []
        for log in pair.logs:
            path = directory / log.path.name
            path.write_text(log.initial, encoding="utf-8", newline="")
            logs.append(GrowingLog(path, log.initial, log.tails))
        copies.append(ServicePair(pair.name, tuple(logs), pair.truth))
    return copies


@dataclass
class Plan:
    open_ops: list[Op]
    capacity_ops: list[list[Op]]
    pairs_needed: int


def plan(seed: int, seconds: float, size: MixSize) -> Plan:
    """The seeded job schedule of both phases."""
    rng = random.Random(seed)
    blocks = max(1, math.ceil(size.rate * seconds / len(KINDS)))
    counter = [0]
    open_ops = build_schedule(rng, blocks, size.tails, 0, "open", counter)
    capacity = []
    first = blocks
    for client in range(2):
        capacity.append(build_schedule(
            rng, size.capacity_blocks, size.tails, first, f"capacity{client}",
            counter,
        ))
        first += size.capacity_blocks
    return Plan(open_ops, capacity, first)


def run(arguments, workdir: Path, setup_repeats: int) -> RunResult:
    size = TINY if arguments.tiny else FULL
    schedule = plan(arguments.seed, arguments.seconds, size)
    if arguments.trace:
        return _run_traced(arguments, workdir, size, schedule)

    tally = Tally()
    setup_s = []
    daemon = None
    try:
        for repeat in range(setup_repeats):
            if daemon is not None:
                daemon.stop()
            started = time.perf_counter()
            pairs = make_pairs(workdir / f"inputs-{repeat}", arguments.seed, size,
                               schedule.pairs_needed)
            store = workdir / f"store-{repeat}"
            daemon = Daemon(serve_command(store), store, workdir / "daemon.log")
            daemon.start()
            setup_s.append(time.perf_counter() - started)
        submitter = Submitter(pairs)
        loop = OpenLoop(daemon, schedule.open_ops, submitter, size.rate)
        loop.run()
        capacity_s = capacity_phase(daemon, schedule.capacity_ops, submitter)
        api = Api(daemon.host, daemon.port)
        jobs = job_documents(api)
        api.close()
        peak = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()

    all_ops = schedule.open_ops + [op for ops in schedule.capacity_ops for op in ops]
    scores = verify(all_ops, pairs, Oracle(workdir / "oracle"), tally)
    result = RunResult(tally)
    open_done = [op for op in schedule.open_ops if op.result is not None]
    capacity_done = sum(
        1 for ops in schedule.capacity_ops for op in ops if op.result is not None
    )
    if not open_done or not scores:
        result.problems.append("no job completed")
        open_done = open_done or schedule.open_ops[:1]
    latencies = [op.latency for op in open_done if op.fetched is not None] or [0.0]
    span = max(op.fetched for op in open_done) - min(op.due for op in open_done)
    runs = [run for _, _, run in fifo_runs(jobs)] or [0.0]
    result.metrics = {
        "setup_s": median(setup_s),
        "pairs_per_s": ratio(len(open_done), span),
        "match_p50_s": quantile(runs, 0.5),
        "job_p50_s": quantile(latencies, 0.5),
        "job_p95_s": quantile(latencies, 0.95),
        "capacity_jobs_per_s": ratio(capacity_done, capacity_s),
        "f_measure": sum(scores) / len(scores) if scores else 0.0,
        "peak_rss_mb": peak,
    }
    p95 = result.metrics["job_p95_s"]
    if p95 > JOB_P95_LIMIT_S:
        result.notes.append(
            f"job_p95_s {p95:.3f} s exceeds the {JOB_P95_LIMIT_S} s limit at "
            f"{size.rate} jobs/s"
        )
    return result


def _open_loop_phase(workdir: Path, name: str, pairs: list[ServicePair],
                     ops: list[Op], rate: float, command) -> tuple[list[dict], str, int, float]:
    """One open loop on a fresh store; returns (jobs, metrics text, store
    bytes, deferrals)."""
    store = workdir / f"store-{name}"
    daemon = Daemon(command(store), store, workdir / f"daemon-{name}.log")
    try:
        daemon.start()
        loop = OpenLoop(daemon, ops, Submitter(pairs), rate)
        loop.run()
        api = Api(daemon.host, daemon.port)
        jobs = job_documents(api)
        status, body = api.call("GET", "/metrics")
        api.close()
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
    finally:
        daemon.stop()
    return jobs, body.decode(), directory_bytes(store), loop.deferrals


def _run_traced(arguments, workdir: Path, size: MixSize, schedule: Plan) -> RunResult:
    tally = Tally()
    pairs = make_pairs(workdir / "inputs", arguments.seed, size, schedule.pairs_needed)
    oracle = Oracle(workdir / "oracle")

    plain_pairs = fresh_copy(pairs, workdir / "inputs-plain")
    plain_ops = plan(arguments.seed, arguments.seconds, size).open_ops
    plain_jobs, _, _, _ = _open_loop_phase(
        workdir, "plain", plain_pairs, plain_ops, size.rate, serve_command,
    )
    traced_pairs = fresh_copy(pairs, workdir / "inputs-traced")
    ops = schedule.open_ops
    dump_path = workdir / "spans.json"
    jobs, metrics_text, store_bytes, deferrals = _open_loop_phase(
        workdir, "traced", traced_pairs, ops, size.rate,
        lambda store: traced_command(store, dump_path),
    )
    verify(plain_ops, plain_pairs, oracle, tally)
    verify(ops, traced_pairs, oracle, tally)

    dump = json.loads(dump_path.read_text())
    roots = [Span.from_dict(fragment) for fragment in dump["spans"]]
    counters = counter_values(dump["metrics"])
    result = RunResult(tally)
    result.metrics = layer_metrics(
        ops, jobs, roots, counters, traced_pairs, store_bytes, deferrals,
        busy_ratio=ratio(
            sum(run for _, _, run in fifo_runs(jobs)),
            sum(run for _, _, run in fifo_runs(plain_jobs)),
        ),
    )
    layers = layer_self_times(roots)
    serving = sum(layers[name] for name in (
        "store.ingest", "store.get", "store.put", "service.job"
    ))
    if serving <= layers["core.fixpoint"]:
        result.notes.append(
            "store and service layers do not outweigh core.fixpoint: the mix "
            "no longer loads the serving path"
        )
    return result


def layer_metrics(ops, jobs, roots, counters, pairs, store_bytes, deferrals,
                  busy_ratio) -> dict[str, float]:
    """The per-layer metrics of one traced open loop."""
    done = [op for op in ops if op.result is not None]
    job_spans = {span.attributes.get("id"): span for span in spans_named(roots, "service.job")}
    runs = {job["id"]: job for job in jobs if job["state"] == "done"}
    job_count = max(1, len(job_spans))
    layers = layer_self_times(roots)
    cold_or_append = sum(
        1 for op in done if not op.deduped
        and op.provenance in ("computed", "store-partial")
    )
    waits = [
        job["updated"] - job["submitted"] - job_spans[job_id].duration
        for job_id, job in runs.items() if job_id in job_spans
    ] or [0.0]
    starts = {
        job_id: job["updated"] - job_spans[job_id].duration
        for job_id, job in runs.items() if job_id in job_spans
    }
    iterations = spans_named(roots, "ems.iteration")
    grown = [op for op in done if op.kind == "grown" and not op.deduped]
    input_bytes = sum(log.path.stat().st_size for pair in pairs for log in pair.logs
                      if log.path.exists())

    def latency_p50(kind: str) -> float:
        values = [op.latency for op in done if op.provenance == kind]
        return quantile(values, 0.5) if values else 0.0

    def hit_ratio(prefix: str) -> float:
        hits = counters.get(f"{prefix}_hits_total", 0.0)
        return ratio(hits, hits + counters.get(f"{prefix}_misses_total", 0.0))

    submitted = counters.get("jobs_submitted_total", 0.0)
    deduped = counters.get("jobs_deduped_total", 0.0)
    measured = [op for op in done if not op.deduped and op.job_id in job_spans]
    attributed = sum(
        op.submit_s + job_spans[op.job_id].duration
        + (starts[op.job_id] - runs[op.job_id]["submitted"])
        for op in measured
    )
    return {
        "logs.parse_s": layers["logs.parse"] / job_count,
        "logs.events_per_s": 0.0,
        "graph.build_s": layers["graph.build"] / job_count,
        "core.fixpoint_s": layers["core.fixpoint"] / job_count,
        "core.pair_updates": sum(
            span.attributes.get("pair_updates", 0) for span in iterations
        ) / job_count,
        "core.iterations": len(iterations) / job_count,
        "composite.round_s": layers["composite.round"] / job_count,
        "composite.candidate_s": layers["composite.candidate"] / job_count,
        "composite.rounds": 0.0,
        "composite.candidates_evaluated": 0.0,
        "composite.merges_accepted": 0.0,
        "composite.abort_ratio": 0.0,
        "composite.screened_ratio": 0.0,
        "similarity.label_cache_hit_ratio": hit_ratio("label_cache"),
        "matching.assign_s": layers["matching.assign"] / job_count,
        "store.ingest_s": ratio(layers["store.ingest"], cold_or_append),
        "store.get_s": layers["store.get"] / job_count,
        "store.put_s": layers["store.put"] / job_count,
        "store.match_hit_ratio": hit_ratio("match_store"),
        "store.counts_hit_ratio": hit_ratio("store"),
        "store.append_path_ratio": ratio(
            sum(1 for op in grown if op.provenance == "store-partial"), len(grown)
        ),
        "store.bytes_per_input_byte": ratio(store_bytes, input_bytes),
        "service.submit_s": quantile([op.submit_s for op in done] or [0.0], 0.5),
        "service.queue_wait_p50_s": quantile(waits, 0.5),
        "service.queue_wait_p95_s": quantile(waits, 0.95),
        "service.run_s": sum(span.duration for span in job_spans.values()) / job_count,
        "service.latency_p50_s.computed": latency_p50("computed"),
        "service.latency_p50_s.store": latency_p50("store"),
        "service.latency_p50_s.store-partial": latency_p50("store-partial"),
        "service.latency_p50_s.deduped": latency_p50("deduped"),
        "service.dedup_ratio": ratio(deduped, submitted + deduped),
        "service.queue_depth_max": float(queue_depth_max(list(runs.values()), starts)),
        "bench.gen_lag_p95_s": quantile([op.lag for op in ops], 0.95),
        "bench.append_deferrals": float(deferrals),
        "bench.trace_overhead": busy_ratio,
        "bench.unattributed_share": 1.0 - ratio(
            attributed, sum(op.latency for op in measured)
        ),
    }
