"""Sharded, out-of-core ingestion and the persistent log store.

The scale layer of the pipeline (see ``docs/scale.md``): streaming
trace ingestion with spill-to-disk blocks counted one block at a time
(:mod:`~repro.store.blocks`, :mod:`~repro.store.sharding`), and a SQLite
:class:`LogStore` that keeps each ingested log once, as its
content-addressed counts, across runs (:mod:`~repro.store.logstore`).
:func:`ingest_statistics` / :func:`ingest_graph`
(:mod:`~repro.store.pipeline`) tie the routes together and always yield
results bit-identical to the batch path.

On top of the log store sits the :class:`MatchStore`
(:mod:`~repro.store.matchstore`): persisted similarity matrices keyed by
content digests of both logs plus the matcher configuration, and
:func:`match_stored` — the warm end-to-end match path that serves a
repeated pair straight from the store, and runs a grown one cold on
append-ingested counts.  Every stored row is a digest-verified record.
"""

from repro.store.blocks import (
    DEFAULT_BLOCK_TRACES,
    TraceBlockWriter,
    iter_block,
)
from repro.store.logstore import (
    LogStore,
    case_digest,
    counts_content_key,
    file_digest,
    ingest_key,
)
from repro.store.matchstore import (
    MatchStore,
    matrix_content_key,
    matrix_record,
    restore_result,
)
from repro.store.pipeline import (
    IngestResult,
    ingest_graph,
    ingest_statistics,
    match_stored,
    stored_statistics,
)
from repro.store.sharding import (
    DEFAULT_PARTITIONS,
    partition_csv,
    resolve_format,
    shard_statistics,
    spill_blocks,
    stream_traces,
)

__all__ = [
    "DEFAULT_BLOCK_TRACES",
    "DEFAULT_PARTITIONS",
    "IngestResult",
    "LogStore",
    "MatchStore",
    "TraceBlockWriter",
    "case_digest",
    "counts_content_key",
    "file_digest",
    "ingest_graph",
    "ingest_key",
    "ingest_statistics",
    "iter_block",
    "match_stored",
    "matrix_content_key",
    "matrix_record",
    "partition_csv",
    "restore_result",
    "resolve_format",
    "shard_statistics",
    "spill_blocks",
    "stored_statistics",
    "stream_traces",
]
