"""The long-running matching daemon: ``repro serve``.

:class:`MatchingService` wires the pieces together around one *store
directory*, the daemon's single durable root:

* ``jobs.db`` — the persistent job queue (:class:`JobQueue`);
* ``match.db`` — the shared :class:`~repro.store.matchstore.MatchStore`
  the scheduler threads answer warm matches from; its ``evaluations``
  table holds the composite search's evaluations, which is what lets an
  interrupted job resume bit-identically after a restart (the
  evaluation-cache or ``checkpoints/`` directory of an older version is
  never read);
* ``deadletters/`` — malformed submissions and poison jobs, with
  provenance;
* ``service.json`` — the *ready file*, written after the socket is
  bound: ``{"host", "port", "pid"}``.  Binding to port 0 picks an
  ephemeral port, and the ready file is how tests and scripts discover
  it without racing the daemon's stdout.

Startup order matters: recover (re-queue ``running`` jobs from the
previous life), then schedulers, then the watcher, then HTTP — by the
time a request can arrive, the machinery behind it is live.  Shutdown
is the reverse, and in-flight composite jobs are tripped so they end at
a round boundary and stay ``running`` for the next life to resume.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from http.server import ThreadingHTTPServer
from pathlib import Path

from repro.exceptions import ServiceError
from repro.obs import MetricsRegistry, Observer, get_logger
from repro.request import MatchRequest
from repro.runtime import DeadLetterArchive
from repro.service.api import make_handler
from repro.service.queue import JobQueue
from repro.service.scheduler import JobScheduler
from repro.service.watcher import FolderWatcher

_logger = get_logger(__name__)

#: Name of the ready file inside the store directory.
READY_FILE = "service.json"


class MatchingService:
    """One daemon instance: queue + scheduler + watcher + HTTP API."""

    def __init__(
        self,
        store_dir: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        watch_dir: str | Path | None = None,
        observer: Observer | None = None,
        max_attempts: int = 3,
        poll_interval: float = 0.1,
    ):
        self.store_dir = Path(store_dir)
        try:
            self.store_dir.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise ServiceError(
                f"cannot create store directory {store_dir!r}: {error}"
            ) from error
        # The daemon always carries a metrics registry — /metrics is
        # part of its contract — plus whatever tracer the caller wired.
        if observer is None:
            observer = Observer(metrics=MetricsRegistry())
        elif observer.metrics is None:
            observer = Observer(tracer=observer.tracer, metrics=MetricsRegistry())
        self.observer = observer
        self.queue = JobQueue(self.store_dir / "jobs.db", observer=observer)
        self.archive = DeadLetterArchive(
            self.store_dir / "deadletters", observer=observer
        )
        self.scheduler = JobScheduler(
            self.queue, self.store_dir, self.archive, observer=observer,
            workers=workers, max_attempts=max_attempts,
            poll_interval=poll_interval,
        )
        self.watcher = (
            FolderWatcher(
                watch_dir, self.queue, self.archive, observer=observer,
                poll_interval=max(poll_interval, 0.2),
                on_submit=self.scheduler.notify,
            )
            if watch_dir is not None
            else None
        )
        try:
            self._http = ThreadingHTTPServer(
                (host, port), make_handler(self)
            )
        except OSError as error:
            raise ServiceError(f"cannot bind {host}:{port}: {error}") from error
        self._http.daemon_threads = True
        self._http_thread: threading.Thread | None = None
        self._stopped = threading.Event()

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    # ------------------------------------------------------------------
    # API-facing operations (called by the handler)
    # ------------------------------------------------------------------
    def submit(self, request: MatchRequest, source: str = "http") -> tuple:
        """Enqueue one request (idempotent: equal requests share a job)."""
        record, created = self.queue.submit(request, source=source)
        if created:
            self.scheduler.notify()
        return record, created

    def reject_submission(self, payload: bytes, problem: str) -> str:
        """Dead-letter a malformed HTTP submission; returns its digest."""
        self.observer.count(
            "service_ingest_rejected_total",
            help="submissions rejected as malformed job specs",
        )
        return self.archive.put(
            payload, {"source": "http:/jobs", "problem": problem, "mode": "http"}
        )

    def health(self) -> dict:
        return {
            "status": "ok",
            "queue_depth": self.queue.depth(),
            "workers": self.scheduler.workers,
            "store_dir": str(self.store_dir),
        }

    def dead_letters(self) -> list[dict]:
        entries = []
        for digest in self.archive.entries():
            try:
                _, context = self.archive.load(digest)
            except (KeyError, ValueError):  # pragma: no cover - racing cleanup
                continue
            entries.append(context)
        return entries

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        recovered = self.queue.recover()
        if recovered:
            self.observer.count(
                "jobs_recovered_total",
                amount=float(recovered),
                help="running jobs re-queued at startup to resume",
            )
        self.scheduler.start()
        if self.watcher is not None:
            self.watcher.start()
        self._http_thread = threading.Thread(
            target=self._http.serve_forever, name="repro-http", daemon=True
        )
        self._http_thread.start()
        ready = {"host": self.host, "port": self.port, "pid": os.getpid()}
        (self.store_dir / READY_FILE).write_text(json.dumps(ready) + "\n")
        _logger.info("matching service listening on %s:%d", self.host, self.port)

    def stop(self) -> None:
        if self._stopped.is_set():
            return
        self._stopped.set()
        if self.watcher is not None:
            self.watcher.stop()
        self._http.shutdown()
        self._http.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=10.0)
        self.scheduler.stop()
        self.queue.close()
        try:
            (self.store_dir / READY_FILE).unlink()
        except OSError:
            pass

    def run_until_signal(self) -> None:
        """Serve until SIGTERM/SIGINT, then shut down gracefully."""
        stop_requested = threading.Event()

        def handler(signum, frame):
            _logger.warning(
                "%s received; shutting down (in-flight jobs stop at a "
                "round boundary and resume on the next start)",
                signal.Signals(signum).name,
            )
            stop_requested.set()

        previous = {
            signum: signal.signal(signum, handler)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            self.start()
            stop_requested.wait()
        finally:
            self.stop()
            for signum, old in previous.items():
                signal.signal(signum, old)
