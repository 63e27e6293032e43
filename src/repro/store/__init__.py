"""Out-of-core ingestion and the persistent log store.

The scale layer of the pipeline (see ``docs/scale.md``): streamed trace
ingestion that never materializes a log — CSV rows are case-hash
partitioned to disk, XES is read one trace at a time
(:mod:`~repro.store.stream`) — and a SQLite
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
from repro.store.stream import (
    DEFAULT_PARTITIONS,
    partition_csv,
    resolve_format,
    stream_traces,
)

__all__ = [
    "DEFAULT_PARTITIONS",
    "IngestResult",
    "LogStore",
    "MatchStore",
    "case_digest",
    "counts_content_key",
    "file_digest",
    "ingest_graph",
    "ingest_key",
    "ingest_statistics",
    "match_stored",
    "matrix_content_key",
    "matrix_record",
    "partition_csv",
    "restore_result",
    "resolve_format",
    "stored_statistics",
    "stream_traces",
]
