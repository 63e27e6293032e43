"""The persistent SQLite job queue behind the matching daemon.

One ``jobs.db`` beside the match store, following the same connection
discipline as :mod:`repro.store.logstore`: WAL journaling plus a busy
timeout so a second process can inspect the table while the daemon
writes it, ``check_same_thread=False`` plus a re-entrant lock so the
HTTP threads and the scheduler threads share one queue object safely.

States move ``queued -> running -> done | failed | dead``:

* ``done`` — the job produced a result (stored as JSON in the row);
* ``failed`` — a *deterministic* input problem (unparseable log, bad
  spec knobs at run time): retrying cannot help, the job terminates and
  its spec is dead-lettered;
* ``dead`` — a job that kept failing for non-input reasons until its
  attempt budget ran out (poison job), likewise dead-lettered;
* a job interrupted mid-run (daemon shutdown) deliberately *stays*
  ``running`` — :meth:`JobQueue.recover` re-queues all ``running`` rows
  at startup, which is how a restart resumes in-flight work through the
  evaluations stored in the daemon's match store.

All lifecycle counters (``jobs_submitted_total``, ``jobs_deduped_total``,
``jobs_completed_total``, ``jobs_failed_total``, ``jobs_dead_total``) and
the ``queue_depth`` gauge are maintained here, inside the lock, so the
numbers on ``/metrics`` are consistent with the table at every instant.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.exceptions import ServiceError
from repro.obs import NULL_OBSERVER, Observer, get_logger
from repro.request import MatchRequest

_logger = get_logger(__name__)

#: Job states, in lifecycle order (see ``docs/service.md``).
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_DEAD = "dead"
STATES = (STATE_QUEUED, STATE_RUNNING, STATE_DONE, STATE_FAILED, STATE_DEAD)


def job_id_from_key(content_key: str) -> str:
    """The short public job id (the key's 16-hex-char prefix)."""
    return content_key[:16]


@dataclass(frozen=True, slots=True)
class JobRecord:
    """One row of the job table, decoded."""

    id: str
    content_key: str
    spec: dict[str, Any]
    state: str
    attempts: int
    source: str
    submitted: float
    updated: float
    result: dict[str, Any] | None
    error: str | None

    def to_dict(self) -> dict[str, Any]:
        """The JSON shape ``GET /jobs/{id}`` answers with."""
        return {
            "id": self.id,
            "state": self.state,
            "attempts": self.attempts,
            "source": self.source,
            "submitted": self.submitted,
            "updated": self.updated,
            "spec": self.spec,
            "error": self.error,
        }


class JobQueue:
    """Persistent job table with idempotent submission and atomic claims."""

    def __init__(
        self,
        path: str | os.PathLike[str],
        observer: Observer | None = None,
    ):
        self.path = Path(path)
        self.observer = observer if observer is not None else NULL_OBSERVER
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise ServiceError(f"cannot create queue directory: {error}") from error
        self._lock = threading.RLock()
        try:
            self._connection = sqlite3.connect(
                self.path, check_same_thread=False
            )
            self._connection.execute("PRAGMA busy_timeout = 5000")
            self._connection.execute("PRAGMA journal_mode = WAL")
            self._connection.execute(
                "CREATE TABLE IF NOT EXISTS jobs ("
                "  id TEXT PRIMARY KEY,"
                "  content_key TEXT NOT NULL UNIQUE,"
                "  spec TEXT NOT NULL,"
                "  state TEXT NOT NULL,"
                "  attempts INTEGER NOT NULL,"
                "  source TEXT NOT NULL,"
                "  submitted REAL NOT NULL,"
                "  updated REAL NOT NULL,"
                "  result TEXT,"
                "  error TEXT"
                ")"
            )
            self._connection.commit()
        except sqlite3.DatabaseError as error:
            raise ServiceError(f"cannot open job queue {self.path}: {error}") from error
        self._refresh_depth()

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    # ------------------------------------------------------------------
    # Submission (idempotent) and startup recovery
    # ------------------------------------------------------------------
    def submit(
        self, request: MatchRequest, source: str
    ) -> tuple[JobRecord, bool]:
        """Insert a request; dedup to the existing job by content.

        The row's key is :meth:`MatchRequest.content_key` and its spec is
        :meth:`MatchRequest.to_json`.  Returns ``(record, created)``;
        ``created`` is ``False`` when an equal request already holds the
        content key, in which case that job is returned untouched —
        whatever state it is in.
        """
        key = request.content_key()
        spec = request.to_json()
        job_id = job_id_from_key(key)
        now = time.time()
        with self._lock:
            existing = self._load("content_key", key)
            if existing is not None:
                self.observer.count(
                    "jobs_deduped_total",
                    help="submissions answered with an existing job "
                         "(idempotent content-hash dedup)",
                )
                return existing, False
            self._connection.execute(
                "INSERT INTO jobs (id, content_key, spec, state, attempts, "
                "source, submitted, updated) VALUES (?, ?, ?, ?, 0, ?, ?, ?)",
                (job_id, key, json.dumps(spec, sort_keys=True),
                 STATE_QUEUED, source, now, now),
            )
            self._connection.commit()
            self.observer.count(
                "jobs_submitted_total",
                help="jobs accepted into the queue (HTTP and watch folder)",
            )
            self._refresh_depth()
            record = self._load("id", job_id)
            assert record is not None
            return record, True

    def recover(self) -> int:
        """Re-queue every ``running`` job (startup after crash/SIGTERM).

        Stored evaluations make the re-run cheap: the resumed attempt
        replays every candidate evaluation the interrupted attempt
        finished, and ends bit-identical to an uninterrupted run.
        """
        with self._lock:
            cursor = self._connection.execute(
                "UPDATE jobs SET state = ?, updated = ? WHERE state = ?",
                (STATE_QUEUED, time.time(), STATE_RUNNING),
            )
            self._connection.commit()
            recovered = cursor.rowcount
            if recovered:
                _logger.warning(
                    "re-queued %d interrupted job(s) to resume",
                    recovered,
                )
            self._refresh_depth()
            return recovered

    # ------------------------------------------------------------------
    # Scheduler side
    # ------------------------------------------------------------------
    def claim(self) -> JobRecord | None:
        """Atomically move the oldest ``queued`` job to ``running``."""
        with self._lock:
            row = self._connection.execute(
                "SELECT id FROM jobs WHERE state = ? "
                "ORDER BY submitted ASC LIMIT 1",
                (STATE_QUEUED,),
            ).fetchone()
            if row is None:
                return None
            self._connection.execute(
                "UPDATE jobs SET state = ?, attempts = attempts + 1, "
                "updated = ? WHERE id = ?",
                (STATE_RUNNING, time.time(), row[0]),
            )
            self._connection.commit()
            self._refresh_depth()
            return self._load("id", row[0])

    def finish(self, job_id: str, result: dict[str, Any]) -> None:
        with self._lock:
            self._transition(job_id, STATE_DONE,
                             result=json.dumps(result, sort_keys=True))
            self.observer.count(
                "jobs_completed_total",
                help="jobs that finished with a result",
            )

    def fail(self, job_id: str, error: str) -> None:
        """Terminal input failure: retrying the same bytes cannot help."""
        with self._lock:
            self._transition(job_id, STATE_FAILED, error=error)
            self.observer.count(
                "jobs_failed_total",
                help="jobs terminated by a deterministic input error",
            )

    def bury(self, job_id: str, error: str) -> None:
        """Poison job: out of attempts, parked as ``dead``."""
        with self._lock:
            self._transition(job_id, STATE_DEAD, error=error)
            self.observer.count(
                "jobs_dead_total",
                help="poison jobs that exhausted their attempt budget",
            )

    def requeue(self, job_id: str, error: str) -> None:
        """Transient failure: back to ``queued`` for another attempt."""
        with self._lock:
            self._transition(job_id, STATE_QUEUED, error=error)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._load("id", job_id)

    def jobs(self) -> Iterator[JobRecord]:
        with self._lock:
            rows = self._connection.execute(
                "SELECT id FROM jobs ORDER BY submitted ASC"
            ).fetchall()
        for (job_id,) in rows:
            record = self.get(job_id)
            if record is not None:
                yield record

    def depth(self) -> int:
        with self._lock:
            row = self._connection.execute(
                "SELECT COUNT(*) FROM jobs WHERE state = ?", (STATE_QUEUED,)
            ).fetchone()
            return int(row[0])

    # ------------------------------------------------------------------
    def _refresh_depth(self) -> None:
        self.observer.gauge(
            "queue_depth",
            value=float(self.depth()),
            help="jobs currently waiting in the queue",
        )

    def _transition(self, job_id: str, state: str, *,
                    result: str | None = None, error: str | None = None) -> None:
        self._connection.execute(
            "UPDATE jobs SET state = ?, updated = ?, result = ?, error = ? "
            "WHERE id = ?",
            (state, time.time(), result, error, job_id),
        )
        self._connection.commit()
        self._refresh_depth()

    def _load(self, column: str, value: str) -> JobRecord | None:
        assert column in ("id", "content_key")
        row = self._connection.execute(
            f"SELECT id, content_key, spec, state, attempts, source, "
            f"submitted, updated, result, error FROM jobs WHERE {column} = ?",
            (value,),
        ).fetchone()
        if row is None:
            return None
        return JobRecord(
            id=row[0], content_key=row[1], spec=json.loads(row[2]),
            state=row[3], attempts=row[4], source=row[5],
            submitted=row[6], updated=row[7],
            result=json.loads(row[8]) if row[8] is not None else None,
            error=row[9],
        )
