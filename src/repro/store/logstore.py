"""Persistent, content-addressed store of log-derived results (SQLite).

Parsing and counting dominate the cost of re-matching a log that has not
changed — and production logs are re-matched constantly (nightly jobs,
config sweeps, appended extracts).  The :class:`LogStore` keeps each
ingested log once, as the integer counts that fix its dependency graph
(Definition 1), keyed so a hit is *provably* the same computation:

* **raw counts** (trace count, per-activity and per-pair trace counts,
  plus compact per-case digests) under
  :func:`counts_content_key` — a SHA-256 over the input file's content
  digest and the parse mode.  Counts, not frequencies, are stored: exact
  integers merge losslessly with an appended tail, while floats do not.
  A graph is rebuilt from them at any threshold, in milliseconds, and
  only where an EMS fixpoint runs next.
* **append bookkeeping** under :func:`ingest_key` — per source path, how
  many bytes were ingested, their prefix digest, the CSV header and the
  counts key — for the *append fast path*: when a file grows, the stored
  counts are reused and only the tail is parsed, provided the old prefix
  is byte-identical and the tail's cases are disjoint from the stored
  case-digest set (otherwise the store falls back to a cold full parse;
  correctness is never traded for the shortcut).

Every table has one shape, ``(key, payload, digest, created,
last_used)``, read by :meth:`LogStore._get` and written by
:meth:`LogStore._put`.  Durability: every row embeds the SHA-256 of
its key and payload and is re-verified on load — a torn, bit-flipped,
misfiled or malformed row is deleted, counted (``store_corrupt_total``)
and answered with a miss; a
database SQLite itself rejects, or one of another schema version, is
renamed aside and recreated empty.  Corruption therefore always degrades
to a logged cold path, never a wrong answer and never a crash.  Tables
are LRU-bounded by the ``last_used`` column (hits touch their row), with
evictions counted.

Concurrency: *processes* sharing one store file coordinate through WAL
journaling plus the busy-timeout/lock-retry discipline in
:meth:`LogStore._execute`.  *Threads* sharing one store **object** (the
``repro serve`` daemon answers from a thread pool, not forks) are safe
too: the connection is opened with ``check_same_thread=False`` and every
public operation holds an internal re-entrant lock for its whole
read-verify-touch-commit sequence, so one thread can never commit — or
roll back — another thread's half-staged transaction.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.exceptions import StoreError
from repro.obs import NULL_OBSERVER, Observer, get_logger

_logger = get_logger(__name__)

#: Bump when the row payload schema changes: a version-mismatched store
#: is renamed aside and rebuilt rather than misread.  New *tables* are
#: additive (``CREATE TABLE IF NOT EXISTS``) and do not bump the version,
#: so a store written before a table existed keeps serving its old rows.
#: Version 2 binds each row's digest to its key; version 3 keeps every
#: table in the verified row shape (no event rows, no pickled graphs).
_SCHEMA_VERSION = 3

#: Record fields every stored counts row must carry.
_COUNTS_FIELDS = frozenset(
    {"trace_count", "activity_counts", "pair_counts", "case_digests", "log_name"}
)

#: Record fields every stored append-bookkeeping row must carry.
_INGEST_FIELDS = frozenset(
    {"byte_count", "prefix_digest", "header", "counts_key"}
)

#: How often a statement blocked by another writer is retried before the
#: operation degrades to a miss (on top of SQLite's own busy timeout).
_LOCK_RETRIES = 5
_LOCK_RETRY_WAIT = 0.05


def _is_lock_error(error: sqlite3.OperationalError) -> bool:
    message = str(error).lower()
    return "locked" in message or "busy" in message


def file_digest(path: str | os.PathLike[str], limit: int | None = None) -> str:
    """SHA-256 of a file's first *limit* bytes (all of them when ``None``).

    Streams in 1 MiB chunks, so hashing never materializes the file —
    the whole point of the out-of-core pipeline.
    """
    digest = hashlib.sha256()
    remaining = limit
    with open(path, "rb") as handle:
        while True:
            size = 1 << 20 if remaining is None else min(1 << 20, remaining)
            if size == 0:
                break
            chunk = handle.read(size)
            if not chunk:
                break
            digest.update(chunk)
            if remaining is not None:
                remaining -= len(chunk)
    return digest.hexdigest()


def case_digest(case_id: str | None) -> bytes:
    """Compact (8-byte) digest of one case id for disjointness checks."""
    data = b"\x00" if case_id is None else case_id.encode("utf-8")
    return hashlib.blake2b(data, digest_size=8).digest()


def counts_content_key(content_digest: str, fmt: str, on_error: str) -> str:
    """Content key of one (file content, format, parse mode) ingestion."""
    return hashlib.sha256(
        json.dumps([content_digest, fmt, on_error], separators=(",", ":")).encode()
    ).hexdigest()


def ingest_key(source: str | os.PathLike[str], fmt: str, on_error: str) -> str:
    """Key of the per-path append bookkeeping record."""
    resolved = os.fspath(Path(source).resolve())
    return hashlib.sha256(
        json.dumps([resolved, fmt, on_error], separators=(",", ":")).encode()
    ).hexdigest()


def _row_digest(key: str, payload: bytes) -> str:
    """SHA-256 of a row's key and payload: a row moved under another key fails."""
    return hashlib.sha256(key.encode() + b"\x00" + payload).hexdigest()


class LogStore:
    """One SQLite database of content-keyed counts and append bookkeeping.

    Parameters
    ----------
    path:
        The database file (created, with parents, on first use).
    max_entries:
        LRU bound per table (``counts`` and ``ingests`` each); ``None``
        disables eviction.  An evicted ``ingests`` record only costs the
        next grown file its append fast path.
    observer:
        Metric sink for ``store_{hits,misses,evictions,corrupt}_total``
        and the ``store.{get,put}`` spans.
    """

    #: The digest-verified LRU tables, all of one shape.  Subclasses
    #: extend this tuple; the schema builder and the eviction machinery
    #: follow it.
    generic_tables: tuple[str, ...] = ("counts", "ingests")

    def __init__(
        self,
        path: str | os.PathLike[str],
        max_entries: int | None = 1024,
        observer: Observer | None = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise StoreError(f"max_entries must be >= 1 or None, got {max_entries}")
        self.path = Path(path)
        self.max_entries = max_entries
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.hits = 0
        self.misses = 0
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise StoreError(f"cannot create store directory: {error}") from error
        #: Serializes whole operations (not just statements) across
        #: threads sharing this object; re-entrant so compound methods
        #: can call the locked primitives they are built from.
        self._lock = threading.RLock()
        self._connection: sqlite3.Connection | None = None
        self._connect()

    # ------------------------------------------------------------------
    # Connection lifecycle and corruption quarantine
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        try:
            connection = self._open()
            version = connection.execute("PRAGMA user_version").fetchone()[0]
            if version not in (0, _SCHEMA_VERSION):
                connection.close()
                self._set_aside(f"schema version {version} is not {_SCHEMA_VERSION}")
                connection = self._open()
            self._create_schema(connection)
        except sqlite3.DatabaseError as error:
            # Not a SQLite file at all, or damaged beyond opening: set it
            # aside and start empty — a cold store, not a crash.
            self._set_aside(str(error))
            connection = self._open()
            self._create_schema(connection)
        self._connection = connection

    def _open(self) -> sqlite3.Connection:
        """A connection to :attr:`path`: the only way one is opened.

        ``check_same_thread=False``: the daemon constructs a store in one
        thread and serves from others; cross-thread *use* is serialized
        by ``self._lock``, which is what the flag's default check exists
        to force.  The busy timeout makes a second writer wait instead
        of failing instantly; a statement that still times out is
        retried a few times in :meth:`_execute` and then degrades to a
        miss — never a crash, never a set-aside of a database another
        process is using.
        """
        connection = sqlite3.connect(self.path, check_same_thread=False)
        connection.execute("PRAGMA busy_timeout = 5000")
        return connection

    def _create_schema(self, connection: sqlite3.Connection) -> None:
        """Create every table this store class needs (idempotent).

        WAL journaling lets a reader run during a write, so two processes
        can share one store.  It is switched on only here, once the file
        is known to be ours: the switch rewrites the file header, which
        would spoil the forensic copy of a database that gets set aside.
        """
        connection.execute("PRAGMA journal_mode = WAL")
        connection.execute(f"PRAGMA user_version = {_SCHEMA_VERSION}")
        for table in self.generic_tables:
            connection.execute(
                f"CREATE TABLE IF NOT EXISTS {table} ("
                "  key TEXT PRIMARY KEY,"
                "  payload BLOB NOT NULL,"
                "  digest TEXT NOT NULL,"
                "  created REAL NOT NULL,"
                "  last_used REAL NOT NULL"
                ")"
            )
        connection.commit()

    def _set_aside(self, reason: str) -> None:
        """Rename an unusable database out of the way (best effort)."""
        if self._connection is not None:
            try:
                self._connection.close()
            except sqlite3.Error:
                pass
            self._connection = None
        aside = self.path.with_name(self.path.name + ".corrupt")
        _logger.warning(
            "log store %s is unusable (%s); renaming to %s and starting cold",
            self.path, reason, aside,
        )
        self.observer.count(
            "store_corrupt_total",
            help="store rows or databases rejected at load time (cold path)",
        )
        try:
            os.replace(self.path, aside)
        except OSError:
            try:
                os.unlink(self.path)
            except OSError:
                pass
        # A recreated database must not inherit the old WAL sidecars.
        for suffix in ("-wal", "-shm"):
            try:
                os.unlink(os.fspath(self.path) + suffix)
            except OSError:
                pass

    def _execute(self, *args) -> sqlite3.Cursor | None:
        """Run one statement; database-level corruption degrades to None.

        A database held by a concurrent writer is *not* corruption: the
        statement is retried (on top of SQLite's busy timeout) and, if the
        lock persists, degrades to ``None`` — a miss — without touching
        the other process's data.
        """
        with self._lock:
            if self._connection is None:
                self._connect()
            for _ in range(_LOCK_RETRIES):
                try:
                    assert self._connection is not None
                    return self._connection.execute(*args)
                except sqlite3.OperationalError as error:
                    if not _is_lock_error(error):
                        self._set_aside(str(error))
                        self._connect()
                        return None
                    time.sleep(_LOCK_RETRY_WAIT)
                except sqlite3.DatabaseError as error:
                    self._set_aside(str(error))
                    self._connect()
                    return None
            _logger.warning(
                "log store %s is locked by another process; degrading to a miss",
                self.path,
            )
            return None

    def _commit(self) -> None:
        with self._lock:
            if self._connection is None:
                return
            for _ in range(_LOCK_RETRIES):
                try:
                    self._connection.commit()
                    return
                except sqlite3.OperationalError as error:
                    if not _is_lock_error(error):
                        self._set_aside(str(error))
                        self._connect()
                        return
                    time.sleep(_LOCK_RETRY_WAIT)
                except sqlite3.DatabaseError as error:
                    self._set_aside(str(error))
                    self._connect()
                    return
            _logger.warning(
                "log store %s commit blocked by another process; rolling back",
                self.path,
            )
            try:
                self._connection.rollback()
            except sqlite3.Error:
                pass

    def close(self) -> None:
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    # ------------------------------------------------------------------
    # Generic verified rows
    # ------------------------------------------------------------------
    def _miss(self) -> None:
        self.misses += 1
        self.observer.count(
            "store_misses_total",
            help="log-store lookups that fell through to a cold computation",
        )

    def _hit(self) -> None:
        self.hits += 1
        self.observer.count(
            "store_hits_total",
            help="log-store lookups served from persisted results",
        )

    def _row_rejected(self, table: str) -> None:
        """Hook for subclasses that keep per-table corruption counters."""

    def _get(
        self, table: str, key: str, valid: Callable[[Any], bool]
    ) -> Any | None:
        """The verified value of *key* in *table*, or ``None`` (a miss).

        A row whose digest does not bind its key and payload, whose
        payload does not unpickle, or whose value fails *valid* is
        deleted, counted and answered as a miss.
        """
        # The lock spans the whole select-verify-touch-commit sequence:
        # a second thread must not commit between our SELECT and our
        # last_used UPDATE, or interleave a conflicting write.
        with self._lock, self.observer.span("store.get", table=table):
            cursor = self._execute(
                f"SELECT payload, digest FROM {table} WHERE key = ?", (key,)
            )
            row = cursor.fetchone() if cursor is not None else None
            if row is None:
                self._miss()
                return None
            payload, digest = row
            reason = None
            if _row_digest(key, payload) != digest:
                reason = "digest mismatch (corrupt, torn or misfiled row)"
            else:
                try:
                    value = pickle.loads(payload)
                except Exception as error:
                    reason = f"unreadable payload ({error})"
                else:
                    if not valid(value):
                        reason = "unexpected record shape"
            if reason is not None:
                _logger.warning(
                    "ignoring store row %s/%s...: %s; computing cold",
                    table, key[:12], reason,
                )
                self.observer.count(
                    "store_corrupt_total",
                    help="store rows or databases rejected at load time (cold path)",
                )
                self._row_rejected(table)
                self._execute(f"DELETE FROM {table} WHERE key = ?", (key,))
                self._commit()
                self._miss()
                return None
            self._execute(
                f"UPDATE {table} SET last_used = ? WHERE key = ?",
                (time.time(), key),
            )
            self._commit()
            self._hit()
            return value

    def _put(self, table: str, key: str, value: Any) -> None:
        with self._lock, self.observer.span("store.put", table=table):
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            digest = _row_digest(key, payload)
            now = time.time()
            self._execute(
                f"INSERT OR REPLACE INTO {table} "
                "(key, payload, digest, created, last_used) VALUES (?, ?, ?, ?, ?)",
                (key, payload, digest, now, now),
            )
            self._evict(table)
            self._commit()

    def _evict(self, table: str) -> None:
        if self.max_entries is None:
            return
        cursor = self._execute(f"SELECT COUNT(*) FROM {table}")
        if cursor is None:
            return
        excess = cursor.fetchone()[0] - self.max_entries
        if excess <= 0:
            return
        cursor = self._execute(
            f"SELECT key FROM {table} ORDER BY last_used ASC LIMIT ?", (excess,)
        )
        keys = [row[0] for row in cursor.fetchall()] if cursor is not None else []
        if not keys:
            return
        marks = ",".join("?" for _ in keys)
        self._execute(f"DELETE FROM {table} WHERE key IN ({marks})", keys)
        self.observer.count(
            "store_evictions_total",
            amount=float(len(keys)),
            help="store rows dropped by the LRU size bound",
        )
        self._on_evicted(table, keys)

    def _on_evicted(self, table: str, keys: list[str]) -> None:
        """Hook for subclasses that keep per-table eviction counters."""

    # ------------------------------------------------------------------
    # Typed accessors
    # ------------------------------------------------------------------
    def get_counts(self, key: str) -> dict[str, Any] | None:
        """The stored raw-count record for *key*, or ``None``.

        The record is the dict :meth:`put_counts` stored: ``trace_count``,
        ``activity_counts``, ``pair_counts``, ``case_digests`` and
        ``log_name``.  A malformed record (wrong type, missing fields) is
        treated exactly like a corrupt row.
        """
        return self._get(
            "counts", key, lambda value: _is_record(value, _COUNTS_FIELDS)
        )

    def put_counts(self, key: str, record: dict[str, Any]) -> None:
        self._put("counts", key, record)

    def get_ingest(self, key: str) -> dict[str, Any] | None:
        """The append-bookkeeping record for *key*, or ``None``.

        The record is the dict :meth:`put_ingest` stored: ``byte_count``
        (the stable prefix length), ``prefix_digest``, ``header`` (the
        raw CSV header line, ``""`` for XES) and ``counts_key``.  A
        damaged or malformed record is a miss, and the ingest goes cold.
        """
        return self._get(
            "ingests", key, lambda value: _is_record(value, _INGEST_FIELDS)
        )

    def put_ingest(self, key: str, record: dict[str, Any]) -> None:
        self._put("ingests", key, record)


def _is_record(value: Any, fields: frozenset[str]) -> bool:
    """Whether *value* is a record dict carrying every one of *fields*."""
    return isinstance(value, dict) and fields.issubset(value)
