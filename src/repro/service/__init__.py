"""Matching-as-a-service: the long-running ``repro serve`` daemon.

One :class:`MatchingService` owns a store directory and serves matching
jobs continuously — submitted over HTTP (``POST /jobs``) or by dropping
spec files into a watch folder — through a persistent SQLite job queue
with content-hash dedup, crash recovery through the match store's stored
evaluations, and a JSON/REST + Prometheus ``/metrics`` API.  See ``docs/service.md``.
"""

from repro.exceptions import JobSpecError, ServiceError
from repro.service.queue import (
    STATE_DEAD,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
    STATES,
    JobQueue,
    JobRecord,
    job_id_from_key,
)
from repro.service.scheduler import JobScheduler
from repro.service.server import READY_FILE, MatchingService
from repro.service.watcher import FolderWatcher

__all__ = [
    "FolderWatcher",
    "JobQueue",
    "JobRecord",
    "JobScheduler",
    "JobSpecError",
    "MatchingService",
    "READY_FILE",
    "STATES",
    "STATE_DEAD",
    "STATE_DONE",
    "STATE_FAILED",
    "STATE_QUEUED",
    "STATE_RUNNING",
    "ServiceError",
    "job_id_from_key",
]
