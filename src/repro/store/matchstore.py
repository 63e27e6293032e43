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

Durability is the log store's: matrix rows share its verified row shape
and are sha256-verified on load; a torn or malformed row is deleted and
answered as a miss (``match_store_corrupt_total``) — corruption always
degrades to a logged cold computation, never a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from repro.core.config import EMSConfig
from repro.core.ems import EMSResult
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
    """A :class:`LogStore` that also persists similarity matrices.

    The ``matrices`` table is additive (``CREATE TABLE IF NOT EXISTS``),
    so a database written by either class opens under the other.
    """

    generic_tables = LogStore.generic_tables + ("matrices",)

    # ------------------------------------------------------------------
    # Similarity matrices
    # ------------------------------------------------------------------
    def _row_rejected(self, table: str) -> None:
        # A rejected matrices row belongs in the matrix quartet too, so
        # `match_store_corrupt_total` covers every rejection reason —
        # torn bytes and malformed records alike.
        if table == "matrices":
            self.observer.count(
                "match_store_corrupt_total",
                help="stored similarity matrices rejected at load time (cold path)",
            )

    def get_matrix(self, key: str) -> dict[str, Any] | None:
        """The stored matrix record for *key*, or ``None``.

        The record is the dict :meth:`put_matrix` stored; a malformed
        record (missing fields, directional arrays not matching the
        label grid) is treated exactly like a corrupt row: deleted,
        counted, answered as a miss.
        """
        value = self._get("matrices", key, _matrix_record_ok)
        if value is None:
            self.observer.count(
                "match_store_misses_total",
                help="match lookups that fell through to the EMS fixpoint",
            )
        else:
            self.observer.count(
                "match_store_hits_total",
                help="match lookups served from a persisted similarity matrix",
            )
        return value

    def put_matrix(self, key: str, record: dict[str, Any]) -> None:
        self._put("matrices", key, record)

    def _on_evicted(self, table: str, keys: list[str]) -> None:
        if table == "matrices":
            self.observer.count(
                "match_store_evictions_total",
                amount=float(len(keys)),
                help="stored similarity matrices dropped by the LRU bound",
            )


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
