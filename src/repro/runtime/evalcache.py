"""Cross-run persistent cache of composite candidate evaluations.

A composite search spends nearly all of its time in candidate
evaluation, and repeated workloads — re-running a matching after a
config tweak elsewhere, nightly jobs over slowly drifting logs, a
resumed experiment — re-evaluate candidates whose inputs have not
changed at all.  This module memoizes
:class:`~repro.core.incremental.CandidateEvaluation` results (the
fixpoint outcome, or ``None`` for a Bd abort, plus the Uc pair count)
on disk, content-addressed so a hit is *provably* the same computation:

* the **base key** is :func:`search_content_key` over the two logs'
  traces, every :class:`~repro.core.config.EMSConfig` field (dtype
  included) and the matcher knobs;
* the **candidate key** (:func:`candidate_key`) extends it with the
  accepted-merge history so far, the candidate's ``(side, run)`` and the
  ``abort_below`` incumbent it was evaluated against.  Keying on
  ``abort_below`` keeps cached verdicts replay-exact: a Bd-aborted
  outcome is only ever reused against the same incumbent that produced
  it.  Rounds evaluate candidates in discovery order, so identical
  reruns regenerate identical incumbent sequences and a second run over
  unchanged inputs hits on every candidate.

The same keys make the cache the search's **resume state**.  The greedy
loop is deterministic, so its state at any round boundary is a function
of the inputs, the knobs and the accepted-merge history — exactly what
the keys cover.  A search cut short by SIGINT/SIGTERM (or killed
outright) and re-run over the same cache replays every finished
evaluation and discovery from disk; it recomputes only the initial
similarity, the delta merges of the accepted history and the
evaluations the interrupt cut off.  Its answer and
:class:`~repro.core.composite.CompositeStats` equal an uninterrupted
run's.

Durability: entries are written via :func:`atomic_write` (tempfile,
fsync, ``os.replace``) under an ``EMSEVAL2 <key> <sha256>`` header, and
every load re-verifies the digest through :func:`verified_payload`.  A
corrupt, truncated or version-mismatched file degrades to a cold
evaluation with a logged warning — never a crash, never a silently
wrong result.  The directory is LRU-bounded by file mtime (hits touch
their entry), and hit/miss/corrupt/eviction counters flow through the
metrics registry.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Iterable

from repro.obs import NULL_OBSERVER, Observer, get_logger

_logger = get_logger(__name__)

#: Format magic; bump when the payload schema changes so stale cache
#: entries are rejected as incompatible rather than misread.  Version 2
#: dropped the estimation-screen verdict of ``CandidateEvaluation``.
_MAGIC = b"EMSEVAL2"


def atomic_write(directory: Path, target: Path, data: bytes) -> Path:
    """Write *data* to *target* atomically (tempfile, fsync, ``os.replace``).

    A crash at any point leaves either the old file or the new one, never
    a torn mix; the temporary is unlinked on failure.  Shared with the
    dead-letter archive (:mod:`repro.runtime.deadletter`).
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


def candidate_key(
    base_key: str,
    history: tuple[tuple[int, tuple[str, ...]], ...],
    side_index: int,
    run: tuple[str, ...],
    abort_below: float,
) -> str:
    """Content key of one candidate evaluation.

    *base_key* is the search-level :func:`search_content_key`; the rest
    pins the exact evaluation state: the accepted merges that shaped the
    side graphs, the candidate itself, and the incumbent threshold the
    evaluation raced against (see module docstring for why the threshold
    belongs in the key).  ``repr(abort_below)`` round-trips the float
    exactly, so equal incumbents — and only equal incumbents — share a
    key.
    """
    digest = hashlib.sha256(base_key.encode())
    digest.update(b"\x00")
    digest.update(
        json.dumps(
            [list(history), side_index, list(run), repr(abort_below)],
            separators=(",", ":"),
        ).encode()
    )
    return digest.hexdigest()


def discovery_key(
    base_key: str,
    history: tuple[tuple[int, tuple[str, ...]], ...],
    side_index: int,
) -> str:
    """Content key of one side's candidate-discovery result.

    Candidate discovery is a pure function of a side's current log,
    which is fully determined by the original inputs (*base_key* covers
    the logs and every knob, discovery thresholds included) and the
    accepted-merge *history*.  Caching it alongside the evaluations lets
    a warm re-run skip the per-round statistics recomputation — the
    dominant cost once every evaluation is a hit.  The ``"discovery"``
    tag keeps these keys disjoint from :func:`candidate_key` digests.
    """
    digest = hashlib.sha256(base_key.encode())
    digest.update(b"\x00discovery\x00")
    digest.update(
        json.dumps([list(history), side_index], separators=(",", ":")).encode()
    )
    return digest.hexdigest()


class EvaluationCache:
    """Owns one directory of content-keyed candidate evaluations.

    Parameters
    ----------
    directory:
        Where entries live (created on first write).  One file per key:
        ``eval-<key32>.pkl`` — 32 hex digits of the full SHA-256, plenty
        within one directory, with the full key inside the file still
        guarding against collisions.
    max_entries:
        LRU bound on the number of entries (by file mtime; loads touch
        their entry).  ``None`` disables eviction.
    observer:
        Metric sink for ``eval_cache_hits_total`` and friends.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        max_entries: int | None = 4096,
        observer: Observer | None = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 or None, got {max_entries}")
        self.directory = Path(directory)
        self.max_entries = max_entries
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.directory / f"eval-{key[:32]}.pkl"

    # ------------------------------------------------------------------
    def load(self, key: str):
        """The cached evaluation for *key*, or ``None`` for a miss.

        Every failure mode — missing file, foreign magic, key mismatch,
        digest mismatch, unpicklable payload — is a logged miss followed
        by cold evaluation; corruption is never fatal and a corrupt
        entry is removed so it cannot keep tripping future runs.
        """
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except (FileNotFoundError, OSError):
            self.misses += 1
            self.observer.count(
                "eval_cache_misses_total",
                help="candidate evaluations not found in the persistent cache",
            )
            return None
        value = None
        payload, reason = verified_payload(raw, _MAGIC, key)
        if payload is not None:
            try:
                value = pickle.loads(payload)
            except Exception as error:
                value, reason = None, f"unreadable payload ({error})"
        if value is None:
            self.misses += 1
            self.observer.count(
                "eval_cache_corrupt_total",
                help="cache entries rejected at load time (cold evaluation)",
            )
            self.observer.count("eval_cache_misses_total")
            _logger.warning(
                "ignoring evaluation-cache entry %s: %s; evaluating cold",
                path, reason,
            )
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        self.observer.count(
            "eval_cache_hits_total",
            help="candidate evaluations served from the persistent cache",
        )
        try:
            os.utime(path)  # LRU touch
        except OSError:
            pass
        return value

    # ------------------------------------------------------------------
    def store(self, key: str, value) -> Path:
        """Atomically persist *value* under *key*; returns the entry path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        header = b" ".join((_MAGIC, key.encode(), digest.encode())) + b"\n"
        target = atomic_write(self.directory, self.path_for(key), header + payload)
        self._evict()
        return target

    def _evict(self) -> None:
        if self.max_entries is None:
            return
        try:
            entries = [
                (path.stat().st_mtime, path)
                for path in self.directory.glob("eval-*.pkl")
            ]
        except OSError:  # pragma: no cover - directory vanished underneath us
            return
        excess = len(entries) - self.max_entries
        if excess <= 0:
            return
        entries.sort()
        for _, path in entries[:excess]:
            try:
                path.unlink()
            except OSError:
                continue
            self.observer.count(
                "eval_cache_evictions_total",
                help="cache entries dropped by the LRU size bound",
            )
