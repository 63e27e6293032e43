"""Content keys of the composite search's persisted evaluations.

A composite search spends nearly all of its time in candidate
evaluation, and repeated workloads — re-running a matching after a
config tweak elsewhere, nightly jobs over slowly drifting logs, a
resumed experiment — re-evaluate candidates whose inputs have not
changed at all.  The search memoizes
:class:`~repro.core.incremental.CandidateEvaluation` results (the
fixpoint outcome, or ``None`` for a Bd abort, plus the Uc pair count)
in the ``evaluations`` table of a
:class:`~repro.store.matchstore.MatchStore`, content-addressed by the
keys below so a hit is *provably* the same computation:

* the **base key** is :func:`search_content_key` over the two logs'
  traces, every :class:`~repro.core.config.EMSConfig` field (dtype
  included) and the matcher knobs;
* the **candidate key** (:func:`candidate_key`) extends it with the
  accepted-merge history so far, the candidate's ``(side, run)`` and the
  ``abort_below`` incumbent it was evaluated against.  Keying on
  ``abort_below`` keeps stored verdicts replay-exact: a Bd-aborted
  outcome is only ever reused against the same incumbent that produced
  it.  Rounds evaluate candidates in discovery order, so identical
  reruns regenerate identical incumbent sequences and a second run over
  unchanged inputs hits on every candidate.

Candidate lists are not stored: discovery reads the side's count table,
whose counters every accepted merge patches, so it costs a pass over
the distinct directly-follows pairs, not over the log.

The same keys make the table the search's **resume state**.  The greedy
loop is deterministic, so its state at any round boundary is a function
of the inputs, the knobs and the accepted-merge history — exactly what
the keys cover.  A search cut short by SIGINT/SIGTERM (or killed
outright) and re-run over the same store replays every finished
evaluation; it recomputes only the count tables, the initial
similarity, the delta merges of the accepted history, candidate
discovery and the evaluations the interrupt cut off.  Its answer and
:class:`~repro.core.composite.CompositeStats` equal an uninterrupted
run's.  Durability — digest-verified rows, damaged rows answered as
counted cold misses, the LRU bound — is the store's.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable


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
