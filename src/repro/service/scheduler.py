"""Async job scheduler: worker threads draining the persistent queue.

Each worker thread loops claim -> run -> settle.  Running a job decodes
its stored spec with :meth:`repro.request.MatchRequest.from_json` and
hands the request to :func:`repro.request.run_match`, the runner
``repro match`` uses, with the worker's match store — which serves
stored matrices to singleton jobs and memoizes the evaluations of
composite ones — so a job's result is bit-identical to the same request
on the command line.
``from_json`` reads every spec a queue row can hold, including rows
that spell knobs out in full (``alpha: null``, ``delta`` on a singleton
job); the scheduler drops the one key it cannot, the retired
``workers`` knob of rows an older version queued.

Settlement policy (see ``docs/service.md``):

* a :class:`~repro.exceptions.ReproError` is a *deterministic input
  problem*: the job moves to ``failed`` and its spec is dead-lettered
  with provenance — retrying the same bytes cannot succeed;
* any other exception is treated as transient: the job is re-queued
  until its attempt budget runs out, then moves to ``dead`` (poison
  job) and is dead-lettered;
* an *interrupted* partial result (daemon shutdown, or the scripted
  ``search.round``/``interrupt`` fault) leaves the job ``running`` on
  purpose: :meth:`~repro.service.queue.JobQueue.recover` re-queues it at
  the next startup, and the re-run replays every candidate evaluation
  the interrupted attempt finished from the match store's
  ``evaluations`` table.  A pair-budgeted job does not read stored
  evaluations (a served hit would charge no budget), so it restarts
  cold and spends its budget exactly as an uninterrupted run does.

A job's inline fault plan is armed only on its **first** attempt —
faults exist to test the recovery path, and recovery must see the run
behave normally.  Fault plans are not part of the evaluations' content
key, so the resumed attempt hits the interrupted attempt's rows.

Threads never share a :class:`~repro.store.matchstore.MatchStore`
object: each worker owns one handle on the shared database file, and
the WAL discipline coordinates them.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any

from repro.exceptions import ReproError
from repro.obs import NULL_OBSERVER, Observer, get_logger
from repro.request import MatchRequest, run_match
from repro.runtime import DeadLetterArchive, InterruptGuard
from repro.service.queue import JobQueue, JobRecord
from repro.store import MatchStore

_logger = get_logger(__name__)


class JobScheduler:
    """N worker threads executing jobs from a :class:`JobQueue`."""

    def __init__(
        self,
        queue: JobQueue,
        store_dir: str | Path,
        archive: DeadLetterArchive,
        observer: Observer | None = None,
        workers: int = 1,
        max_attempts: int = 3,
        poll_interval: float = 0.1,
    ):
        if workers < 1:
            raise ValueError(f"scheduler workers must be >= 1, got {workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.queue = queue
        self.store_dir = Path(store_dir)
        self.archive = archive
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.workers = workers
        self.max_attempts = max_attempts
        self.poll_interval = poll_interval
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._threads: list[threading.Thread] = []
        #: Inert interrupt guards of the jobs currently running, tripped
        #: together at shutdown so every in-flight search stops at its
        #: next round boundary.
        self._active_guards: dict[str, InterruptGuard] = {}
        self._guards_lock = threading.Lock()

    # ------------------------------------------------------------------
    def start(self) -> None:
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-scheduler-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 30.0) -> None:
        """Trip every in-flight job, then join the worker threads.

        Interrupted composite jobs stop at a round boundary and stay
        ``running`` in the queue; the next startup resumes them.
        """
        self._stop.set()
        self._wake.set()
        with self._guards_lock:
            for guard in self._active_guards.values():
                guard.trip("shutdown")
        for thread in self._threads:
            thread.join(timeout=timeout)

    def notify(self) -> None:
        """Wake a sleeping worker (a job was just submitted)."""
        self._wake.set()

    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        store: MatchStore | None = None
        try:
            while not self._stop.is_set():
                job = self.queue.claim()
                if job is None:
                    self._wake.wait(timeout=self.poll_interval)
                    self._wake.clear()
                    continue
                if store is None:
                    store = MatchStore(
                        self.store_dir / "match.db", observer=self.observer
                    )
                self._run_job(job, store)
        finally:
            if store is not None:
                store.close()

    def _run_job(self, job: JobRecord, store: MatchStore) -> None:
        started = time.monotonic()
        guard = InterruptGuard(signals=())
        with self._guards_lock:
            self._active_guards[job.id] = guard
        try:
            with self.observer.span(
                "service.job", id=job.id, attempt=job.attempts
            ):
                result, interrupted = self._execute(job, store, guard)
            if interrupted:
                # Parked as `running`: recover() re-queues it at the
                # next startup and the re-run resumes through the store.
                _logger.warning(
                    "job %s interrupted mid-run; parked for restart resume",
                    job.id,
                )
                return
            self.queue.finish(job.id, result)
            self.observer.observe(
                "job_latency_seconds",
                time.monotonic() - started,
                help="wall-clock seconds from claim to settled result",
            )
        except ReproError as error:
            self._settle_failed(job, error, terminal=True)
        except Exception as error:  # noqa: BLE001 - routed to the queue
            self._settle_failed(job, error, terminal=False)
        finally:
            with self._guards_lock:
                self._active_guards.pop(job.id, None)

    def _settle_failed(
        self, job: JobRecord, error: BaseException, *, terminal: bool
    ) -> None:
        message = f"{type(error).__name__}: {error}"
        if terminal:
            _logger.warning("job %s failed on bad input: %s", job.id, message)
            self.queue.fail(job.id, message)
            self._dead_letter(job, message, "input-error")
        elif job.attempts >= self.max_attempts:
            _logger.warning(
                "job %s dead after %d attempt(s): %s",
                job.id, job.attempts, message,
            )
            self.queue.bury(job.id, message)
            self._dead_letter(job, message, "poison")
        else:
            _logger.warning(
                "job %s attempt %d failed transiently (%s); re-queued",
                job.id, job.attempts, message,
            )
            self.queue.requeue(job.id, message)
            self.notify()

    def _dead_letter(self, job: JobRecord, message: str, reason: str) -> None:
        self.archive.put(
            json.dumps(job.spec, sort_keys=True, indent=2).encode(),
            {
                "source": f"job:{job.id}",
                "problem": message,
                "mode": reason,
                "attempts": job.attempts,
                "submitted_via": job.source,
            },
        )

    # ------------------------------------------------------------------
    def _execute(
        self, job: JobRecord, store: MatchStore, guard: InterruptGuard
    ) -> tuple[dict[str, Any], bool]:
        """Run one job; returns (result payload, interrupted flag)."""
        # Rows queued by an older version may carry the retired composite
        # ``workers`` knob; it never changed a result, so it is dropped.
        spec = {name: value for name, value in job.spec.items() if name != "workers"}
        if job.attempts > 1:
            spec["fault_plan"] = None
        request = MatchRequest.from_json(spec)
        run = run_match(request, observer=self.observer, store=store, interrupt=guard)
        return run.to_dict(), run.interrupted
