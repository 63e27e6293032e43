"""Persistent match store: similarity matrices next to the log counts.

The :class:`~repro.store.logstore.LogStore` makes *ingestion* skip parse
and count on a hit; the matching stage would still rebuild both graphs
and re-run the EMS fixpoint every invocation.  The :class:`MatchStore`
adds one more table to the same SQLite file so a repeated log pair
skips the fixpoint too: ``matrices`` — one digest-verified, LRU-bounded
row per (counts key pair, graph threshold, ``EMSConfig`` knobs, label
scorer) under :func:`matrix_content_key`, holding the per-direction
similarity arrays at the dtype the fixpoint ran at
(``EMSConfig.np_dtype``; a float32 run stores float32 — half the bytes,
exact round-trip).  The combined matrix is *not* stored: it is
recomputed on load with the same reduction the live engine uses
(:func:`repro.core.ems.combine_directional`), so a served result is
bit-identical to the stored run.

A second table, ``evaluations``, memoizes the composite search
(Algorithm 2): one row per candidate evaluation
(:class:`~repro.core.incremental.CandidateEvaluation`) under
:func:`~repro.runtime.evalcache.candidate_key` and one per candidate
discovery (the list of runs) under
:func:`~repro.runtime.evalcache.discovery_key`.  A repeated search is
served from it, and an interrupted one resumes by re-running over the
same store.  Its lookups, rejections and evictions are also counted as
``eval_cache_{hits,misses,corrupt,evictions}_total``, as the matrix
table's are as ``match_store_*``.

Durability is the log store's: matrix and evaluation rows share its
verified row shape and are sha256-verified on load; a torn or malformed
row is deleted and answered as a miss (``match_store_corrupt_total`` or
``eval_cache_corrupt_total``) — corruption always degrades to a logged
cold computation, never a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable

import numpy as np

from repro.core.config import EMSConfig
from repro.core.ems import EMSResult
from repro.core.incremental import CandidateEvaluation
from repro.store.logstore import LogStore

#: Record fields every stored matrix row must carry.
_MATRIX_FIELDS = frozenset(
    {"rows", "cols", "directional", "iterations", "pair_updates",
     "converged", "estimated", "log_names"}
)


def matrix_content_key(
    counts_key_first: str,
    counts_key_second: str,
    min_frequency: float,
    config: EMSConfig,
    label_key: str = "opaque",
) -> str:
    """Content key of one similarity-matrix computation.

    Keys on everything that determines the matrix values: the two counts
    keys (which already encode file content, format and parse mode), the
    graph threshold, the label scorer, and every ``EMSConfig`` knob the
    fixpoint reads, ``dtype`` included.  ``threshold`` is *not* part of
    the key; it filters pairs after the assignment and never touches
    matrix values.  Floats go through
    ``repr`` so equal values — and only equal values — share a row.
    """
    payload = [
        counts_key_first,
        counts_key_second,
        repr(min_frequency),
        label_key,
        repr(config.alpha),
        repr(config.c),
        repr(config.epsilon),
        config.max_iterations,
        config.direction,
        config.use_pruning,
        config.estimation_iterations,
        config.use_edge_weights,
        config.dtype,
    ]
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode()
    ).hexdigest()


def matrix_record(
    result: EMSResult,
    config: EMSConfig,
    log_names: tuple[str, str],
) -> dict[str, Any]:
    """The storable form of a finished :class:`EMSResult`.

    Only the directional arrays are kept, narrowed to the dtype the
    fixpoint ran at (float32 runs store float32 — lossless, half the
    bytes); the combined matrix is recomputed on restore with the same
    reduction the engine uses, so nothing redundant is persisted.
    """
    assert result.directional is not None
    dtype = config.np_dtype
    return {
        "rows": result.matrix.rows,
        "cols": result.matrix.cols,
        "directional": {
            name: matrix.to_record(dtype)
            for name, matrix in result.directional.items()
        },
        "iterations": result.iterations,
        "pair_updates": result.pair_updates,
        "converged": result.converged,
        "estimated": result.estimated,
        "log_names": tuple(log_names),
    }


def restore_result(record: dict[str, Any]) -> EMSResult:
    """Rebuild the :class:`EMSResult` a :func:`matrix_record` captured."""
    directional_values = {
        name: sub["values"] for name, sub in record["directional"].items()
    }
    return EMSResult.from_directional(
        tuple(record["rows"]),
        tuple(record["cols"]),
        directional_values,
        iterations=int(record["iterations"]),
        pair_updates=int(record["pair_updates"]),
        converged=bool(record["converged"]),
        estimated=bool(record["estimated"]),
    )


class MatchStore(LogStore):
    """A :class:`LogStore` that also persists similarity matrices and
    composite-search evaluations.

    The ``matrices`` and ``evaluations`` tables are additive (``CREATE
    TABLE IF NOT EXISTS``), so a database written by either class opens
    under the other.
    """

    generic_tables = LogStore.generic_tables + ("matrices", "evaluations")

    #: Table -> (metric prefix, what a row holds): each table's lookups,
    #: rejections and evictions are also counted under its own prefix.
    _table_metrics = {
        "matrices": ("match_store", "similarity-matrix"),
        "evaluations": ("eval_cache", "composite-evaluation"),
    }

    def _row_rejected(self, table: str) -> None:
        # Counted per table too, so each table's corrupt counter covers
        # every rejection reason — torn bytes and malformed records alike.
        if table in self._table_metrics:
            prefix, noun = self._table_metrics[table]
            self.observer.count(
                f"{prefix}_corrupt_total",
                help=f"{noun} rows rejected at load time (cold path)",
            )

    def _on_evicted(self, table: str, keys: list[str]) -> None:
        if table in self._table_metrics:
            prefix, noun = self._table_metrics[table]
            self.observer.count(
                f"{prefix}_evictions_total",
                amount=float(len(keys)),
                help=f"{noun} rows dropped by the LRU bound",
            )

    def _get_counted(
        self, table: str, key: str, valid: Callable[[Any], bool]
    ) -> Any | None:
        """:meth:`_get`, with the lookup also counted under the table's prefix."""
        value = self._get(table, key, valid)
        prefix, noun = self._table_metrics[table]
        if value is None:
            self.observer.count(
                f"{prefix}_misses_total",
                help=f"{noun} lookups that fell through to a cold computation",
            )
        else:
            self.observer.count(
                f"{prefix}_hits_total",
                help=f"{noun} lookups served from the store",
            )
        return value

    # ------------------------------------------------------------------
    # Similarity matrices
    # ------------------------------------------------------------------
    def get_matrix(self, key: str) -> dict[str, Any] | None:
        """The stored matrix record for *key*, or ``None``.

        The record is the dict :meth:`put_matrix` stored; a malformed
        record (missing fields, directional arrays not matching the
        label grid) is treated exactly like a corrupt row: deleted,
        counted, answered as a miss.
        """
        return self._get_counted("matrices", key, _matrix_record_ok)

    def put_matrix(self, key: str, record: dict[str, Any]) -> None:
        self._put("matrices", key, record)

    # ------------------------------------------------------------------
    # Composite-search evaluations
    # ------------------------------------------------------------------
    def get_evaluation(self, key: str) -> Any | None:
        """The stored candidate evaluation or discovery for *key*, or ``None``.

        A row holding anything but a :class:`CandidateEvaluation` or a
        list of activity runs is treated like a corrupt row.
        """
        return self._get_counted("evaluations", key, _evaluation_record_ok)

    def put_evaluation(self, key: str, value: Any) -> None:
        self._put("evaluations", key, value)


def _matrix_record_ok(value: Any) -> bool:
    if not isinstance(value, dict) or not _MATRIX_FIELDS.issubset(value):
        return False
    rows, cols = value["rows"], value["cols"]
    directional = value["directional"]
    if not isinstance(directional, dict) or not directional:
        return False
    for record in directional.values():
        if not isinstance(record, dict) or "values" not in record:
            return False
        values = record["values"]
        if not isinstance(values, np.ndarray):
            return False
        if values.shape != (len(rows), len(cols)):
            return False
    return True


def _evaluation_record_ok(value: Any) -> bool:
    if isinstance(value, CandidateEvaluation):
        return True
    return isinstance(value, list) and all(
        isinstance(run, tuple) and all(isinstance(name, str) for name in run)
        for run in value
    )
