"""Watch-folder ingestion: drop a job-spec JSON file, get a job.

A stdlib-only polling watcher (no inotify dependency): every interval it
scans the watch directory for ``*.json`` files, validates each as a job
spec, submits it to the queue, and renames the file out of the way —
``<name>.json.accepted`` on success (with the job id recorded inside),
``<name>.json.rejected`` on a malformed spec, whose original bytes and
error context also land in the dead-letter archive.  The rename is what
makes the scan idempotent across polls and restarts: a file is acted on
exactly once, whatever happens to the daemon in between.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from repro.exceptions import JobSpecError
from repro.obs import NULL_OBSERVER, Observer, get_logger
from repro.runtime import DeadLetterArchive
from repro.request import MatchRequest
from repro.service.queue import JobQueue

_logger = get_logger(__name__)


class FolderWatcher:
    """Polls one directory for job-spec files and feeds the queue."""

    def __init__(
        self,
        directory: str | Path,
        queue: JobQueue,
        archive: DeadLetterArchive,
        observer: Observer | None = None,
        poll_interval: float = 0.5,
        on_submit=None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.queue = queue
        self.archive = archive
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.poll_interval = poll_interval
        self.on_submit = on_submit
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, name="repro-watcher", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    # ------------------------------------------------------------------
    def scan_once(self) -> int:
        """One pass over the folder; returns how many files were acted on."""
        acted = 0
        for path in sorted(self.directory.glob("*.json")):
            if self._ingest(path):
                acted += 1
        return acted

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.scan_once()
            except Exception:  # noqa: BLE001 - the watcher must survive
                _logger.exception("watch-folder scan failed; retrying")
            self._stop.wait(timeout=self.poll_interval)

    def _ingest(self, path: Path) -> bool:
        with self.observer.span("service.ingest", source=str(path)):
            try:
                payload = path.read_bytes()
            except OSError:
                return False  # raced with a concurrent producer/cleanup
            try:
                request = MatchRequest.from_json(json.loads(payload.decode("utf-8")))
            except (ValueError, UnicodeDecodeError, JobSpecError) as error:
                self.observer.count(
                    "service_ingest_rejected_total",
                    help="watch-folder files rejected as malformed job specs",
                )
                self.archive.put(
                    payload,
                    {"source": str(path), "problem": str(error), "mode": "watch"},
                )
                self._retire(path, ".rejected", {"error": str(error)})
                _logger.warning(
                    "rejected watch-folder submission %s: %s", path.name, error
                )
                return True
            record, created = self.queue.submit(request, source="watch")
            self._retire(
                path, ".accepted", {"job": record.id, "created": created}
            )
            if created and self.on_submit is not None:
                self.on_submit()
            _logger.info(
                "watch-folder submission %s -> job %s (%s)",
                path.name, record.id, "created" if created else "deduped",
            )
            return True

    @staticmethod
    def _retire(path: Path, suffix: str, receipt: dict) -> None:
        target = path.with_name(path.name + suffix)
        staging = target.with_name(target.name + ".tmp")
        try:
            # Write-then-rename, so a reader never sees a half-written receipt.
            staging.write_text(json.dumps(receipt, indent=2) + "\n")
            os.replace(staging, target)
            path.unlink()
        except OSError:  # pragma: no cover - best effort
            pass
