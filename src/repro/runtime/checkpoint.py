"""Crash-safe checkpointing of the composite search, and interrupt handling.

A composite search over production-sized logs runs for minutes; a
mid-run SIGTERM (deploy, preemption, OOM-killer collateral) used to lose
all of it.  This module makes the greedy loop resumable:

* **Content-keyed snapshots** — a checkpoint is keyed by
  :func:`search_content_key`, a SHA-256 over the two logs' traces, the
  :class:`~repro.core.config.EMSConfig` fields and the matcher knobs.
  Resuming against a different input or configuration can therefore
  never silently mix state: the key simply doesn't match and the run
  starts cold.
* **Atomic, self-verifying writes** — snapshots are written to a
  temporary file, fsynced and ``os.replace``d into place, with a header
  carrying the payload's SHA-256.  A torn write or bit rot is detected
  on load (digest mismatch), logged, counted, and answered with a cold
  start — never a crash, never a silently wrong resume.
* **Replay-based restore** — a :class:`SearchSnapshot` stores the
  accepted-merge history plus the current converged result, not the
  derived side states; the matcher replays the history through the same
  delta-merge machinery that produced it, which PR 3's differential
  suites already pin as bit-identical to a cold rebuild.  A resumed run
  therefore finishes with bit-identical correspondences and stats.
* **Cooperative interrupts** — :class:`InterruptGuard` converts
  SIGINT/SIGTERM into a flag the round loop checks; the matcher flushes
  a final checkpoint and returns a ``partial`` result (reason
  ``"interrupted"``) instead of dying mid-round.  ``kill -9`` cannot be
  caught, but the periodic snapshot (every ``every`` accepted rounds)
  bounds the loss to one round.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.exceptions import SearchInterrupted
from repro.obs import NULL_OBSERVER, Observer, get_logger
from repro.runtime.faults import FaultPlan

_logger = get_logger(__name__)

#: Format magic; bump when the payload schema changes so stale
#: checkpoints are rejected as incompatible rather than misread.  Version
#: 4 dropped the two retry/quarantine counters of the pickled
#: ``CompositeStats``.
_MAGIC = b"EMSCKPT4"


def atomic_write(directory: Path, target: Path, data: bytes) -> Path:
    """Write *data* to *target* atomically (tempfile, fsync, ``os.replace``).

    A crash at any point leaves either the old file or the new one, never
    a torn mix; the temporary is unlinked on failure.  Shared by the
    checkpoint store, the persistent evaluation cache
    (:mod:`repro.runtime.evalcache`) and the dead-letter archive
    (:mod:`repro.runtime.deadletter`).
    """
    handle = tempfile.NamedTemporaryFile(
        dir=directory, prefix=target.name + ".", suffix=".tmp", delete=False
    )
    try:
        with handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, target)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return target


def verified_payload(
    raw: bytes, magic: bytes, key: str
) -> tuple[bytes | None, str | None]:
    """Split and verify a ``<magic> <key> <sha256>\\n<payload>`` file.

    Returns ``(payload, None)`` when the magic matches, the stored key
    equals *key* and the payload's SHA-256 equals the header digest;
    ``(None, reason)`` otherwise.  Never raises on malformed input —
    every parse failure becomes a reason string, so callers can uniformly
    degrade to a cold path with a logged warning.
    """
    try:
        header, _, payload = raw.partition(b"\n")
        stored_magic, stored_key, digest = header.split(b" ")
        if stored_magic != magic:
            return None, f"unrecognized format {stored_magic!r}"
        if stored_key.decode() != key:
            return None, "entry belongs to a different (log pair, config)"
        if hashlib.sha256(payload).hexdigest() != digest.decode():
            return None, "payload digest mismatch (corrupt or torn write)"
        return payload, None
    except Exception as error:
        return None, f"unreadable entry ({error})"


def search_content_key(
    log_first: Iterable,
    log_second: Iterable,
    config_fields: dict[str, Any],
    knobs: dict[str, Any],
) -> str:
    """Compatibility hash of (log pair, config, matcher knobs).

    The logs contribute their ordered traces of activities — the only
    log content the search consumes (counts and graphs derive from it).
    Everything is serialized canonically (sorted keys, no whitespace
    drift) before hashing, so the key is stable across processes and
    platforms.
    """
    digest = hashlib.sha256()
    for log in (log_first, log_second):
        canonical = [trace.activities for trace in log]
        digest.update(json.dumps(canonical, separators=(",", ":")).encode())
        digest.update(b"\x00")
    for mapping in (config_fields, knobs):
        digest.update(
            json.dumps(mapping, sort_keys=True, separators=(",", ":"),
                       default=str).encode()
        )
        digest.update(b"\x00")
    return digest.hexdigest()


@dataclass(frozen=True, slots=True)
class SearchSnapshot:
    """Resumable state of one composite search at a round boundary.

    ``history`` lists every accepted merge ``(side, run)`` in order —
    the minimal generator of the side states.  ``current`` is the
    converged :class:`~repro.core.ems.EMSResult` after the last accepted
    merge (matrix, directional matrices, iteration/pair-update totals),
    and ``stats`` the :class:`~repro.core.composite.CompositeStats`
    counters at the same instant, so a resumed run reports exactly what
    an uninterrupted one would.
    """

    key: str
    rounds: int
    history: tuple[tuple[int, tuple[str, ...]], ...]
    stats: Any
    current: Any
    #: True when the search finished (the last round accepted nothing):
    #: resuming returns the stored result directly instead of re-running
    #: the final barren round, keeping resumed stats bit-identical.
    complete: bool = False

    def to_payload(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "rounds": self.rounds,
            "history": self.history,
            "stats": self.stats,
            "current": self.current,
            "complete": self.complete,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "SearchSnapshot":
        return cls(
            key=payload["key"],
            rounds=payload["rounds"],
            history=tuple((side, tuple(run)) for side, run in payload["history"]),
            stats=payload["stats"],
            current=payload["current"],
            complete=payload.get("complete", False),
        )


class CheckpointManager:
    """Owns one directory of content-keyed search checkpoints.

    Parameters
    ----------
    directory:
        Where snapshots live (created on first use).  One file per key:
        ``ems-<key16>.ckpt`` — the first 16 hex digits are plenty within
        one directory, and the full key inside the file still guards
        against collisions.
    every:
        Snapshot cadence in accepted rounds (default: every round).
    observer:
        Metric sink for ``checkpoint_writes_total`` and friends.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan`; a matching
        ``checkpoint.write``/``corrupt`` spec flips payload bytes *after*
        the digest was computed, simulating on-disk corruption that the
        next load must detect.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        every: int = 1,
        observer: Observer | None = None,
        faults: FaultPlan | None = None,
    ):
        if every < 1:
            raise ValueError(f"checkpoint cadence must be >= 1, got {every}")
        self.directory = Path(directory)
        self.every = every
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.faults = faults
        self.writes = 0

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.directory / f"ems-{key[:16]}.ckpt"

    def due(self, rounds: int) -> bool:
        return rounds % self.every == 0

    # ------------------------------------------------------------------
    def save(self, snapshot: SearchSnapshot) -> Path:
        """Atomically persist *snapshot*; returns the checkpoint path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(
            snapshot.to_payload(), protocol=pickle.HIGHEST_PROTOCOL
        )
        digest = hashlib.sha256(payload).hexdigest()
        if self.faults is not None:
            spec = self.faults.match("checkpoint.write", round=snapshot.rounds)
            if spec is not None:
                payload = self.faults.corrupt(payload, round=snapshot.rounds)
        header = b" ".join(
            (_MAGIC, snapshot.key.encode(), digest.encode())
        ) + b"\n"
        target = self.path_for(snapshot.key)
        atomic_write(self.directory, target, header + payload)
        self.writes += 1
        self.observer.count(
            "checkpoint_writes_total",
            help="search snapshots flushed to the checkpoint directory",
        )
        _logger.debug(
            "checkpoint after round %d -> %s", snapshot.rounds, target
        )
        return target

    # ------------------------------------------------------------------
    def load(self, key: str) -> SearchSnapshot | None:
        """Load the snapshot for *key*, or ``None`` for a cold start.

        Every failure mode — missing file, foreign magic, key mismatch,
        digest mismatch, unpicklable payload — degrades to a cold start
        with a logged warning; corruption is never fatal and never
        silently resumed from.  A rejected file is set aside as
        ``<name>.corrupt`` for inspection, so it cannot trip the next
        load.
        """
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        snapshot = None
        payload, reason = verified_payload(raw, _MAGIC, key)
        if payload is not None:
            try:
                snapshot = SearchSnapshot.from_payload(pickle.loads(payload))
                if snapshot.key != key:
                    snapshot, reason = None, "embedded key mismatch"
            except Exception as error:
                snapshot, reason = None, f"unreadable checkpoint ({error})"
        if snapshot is None:
            self.observer.count(
                "checkpoint_corrupt_total",
                help="checkpoints rejected at load time (falling back cold)",
            )
            _logger.warning(
                "ignoring checkpoint %s: %s; starting cold", path, reason
            )
            try:
                os.replace(path, path.with_name(path.name + ".corrupt"))
            except OSError:
                pass
            return None
        self.observer.count(
            "checkpoint_resumes_total",
            help="searches resumed from a verified checkpoint",
        )
        _logger.info(
            "resuming from %s (%d accepted round(s))", path, snapshot.rounds
        )
        return snapshot


class InterruptGuard:
    """Cooperative SIGINT/SIGTERM handling for checkpointed runs.

    Used as a context manager around a matching run: while active, the
    first signal sets :attr:`interrupted` (the round loop polls it and
    unwinds through the checkpoint flush); a *second* signal restores
    the previous handler's behaviour, so an operator can still kill a
    stuck process with a repeated Ctrl-C.

    Signal handlers only install from the main thread; elsewhere (or
    with ``signals=()``) the guard degrades to an inert flag that
    :meth:`trip` can set programmatically — which is also how the
    deterministic fault-injection site ``search.round``/``interrupt``
    simulates a SIGTERM at an exact round boundary.
    """

    def __init__(self, signals: tuple[int, ...] = (signal.SIGINT, signal.SIGTERM)):
        self.signals = signals
        self.interrupted = False
        self.signal_name = ""
        self._previous: dict[int, Any] = {}

    # ------------------------------------------------------------------
    def trip(self, name: str = "scripted") -> None:
        """Flag an interrupt without an actual signal (tests, faults)."""
        self.interrupted = True
        self.signal_name = name

    def check(self) -> None:
        """Raise :class:`SearchInterrupted` if an interrupt is flagged."""
        if self.interrupted:
            raise SearchInterrupted(
                f"interrupted by {self.signal_name or 'signal'}",
                signal_name=self.signal_name,
            )

    # ------------------------------------------------------------------
    def _handle(self, signum: int, frame: Any) -> None:
        self.trip(signal.Signals(signum).name)
        # Let a second signal act on the previous handler: restore it.
        previous = self._previous.get(signum)
        if previous is not None:
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        _logger.warning(
            "%s received; finishing the current round, flushing a final "
            "checkpoint, then returning a partial result",
            self.signal_name,
        )

    def __enter__(self) -> "InterruptGuard":
        for signum in self.signals:
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except ValueError:  # not the main thread
                self._previous.pop(signum, None)
                break
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for signum, previous in self._previous.items():
            try:
                if signal.getsignal(signum) == self._handle:
                    signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous.clear()
