"""Bounded-memory trace streams: the streamed ingest route's input.

:func:`stream_traces` turns a CSV or XES file into an iterator of
``(case_id, activities)`` pairs without ever materializing the whole
:class:`~repro.logs.log.EventLog`.  XES streams directly — traces are
self-contained elements, so :func:`~repro.logs.xes.iter_xes_traces`
already yields them in O(trace) memory.  CSV rows of one case can be
interleaved arbitrarily far apart, so a single forward pass cannot know
a case is complete before EOF; instead :func:`partition_csv` routes the
rows *by case-id hash* into spill files in one streaming pass, and each
partition (which holds every row of its cases) is then parsed with the
very same ``_read_rows`` routine as the batch reader.  Peak memory is
O(largest partition) — 1/``partitions`` of the log for any realistic
case-id distribution.

Definition-1 statistics are pure integer sums over traces, so counting
the stream in any order gives counts — and therefore frequencies, and
therefore dependency graphs — bit-identical to the batch computation.

Accounting caveats of the partitioned CSV pass (documented in
``docs/scale.md``): row numbers in error messages and the
:class:`~repro.runtime.IngestionReport` are partition-relative, and
trace order follows partition order rather than first appearance.
Statistics are order-insensitive, so results are unaffected.
"""

from __future__ import annotations

import csv
import io
import os
import zlib
from pathlib import Path
from typing import IO, Callable, Iterator

from repro.exceptions import LogFormatError
from repro.logs.csvio import ACTIVITY_COLUMN, CASE_COLUMN, _read_rows
from repro.logs.xes import iter_xes_traces
from repro.runtime.report import IngestionReport

#: Case-hash partitions of the CSV spill pass.  Sixteen bounds peak
#: parse memory to ~1/16 of the log while keeping the open-file count
#: trivial.
DEFAULT_PARTITIONS = 16

#: Write-buffer size of each open partition file.  Without it ``open``
#: sizes the buffer from the filesystem's reported block size, which can
#: be 128 KiB+ — across ``partitions`` simultaneous writers that fixed
#: cost would dwarf the rows actually in flight.
_SPILL_BUFFER_BYTES = 8192


def resolve_format(path: str | os.PathLike[str], fmt: str = "auto") -> str:
    """``"xes"`` or ``"csv"``, inferred from the suffix when ``auto``."""
    if fmt == "auto":
        suffix = Path(path).suffix.lower()
        if suffix == ".xes":
            return "xes"
        if suffix == ".csv":
            return "csv"
        raise LogFormatError(
            f"cannot infer the format of {os.fspath(path)!r}; pass an explicit format"
        )
    if fmt not in ("xes", "csv"):
        raise LogFormatError(f"unknown format {fmt!r}")
    return fmt


def stream_traces(
    source: str | os.PathLike[str],
    fmt: str = "auto",
    on_error: str = "raise",
    report: IngestionReport | None = None,
    *,
    spill_dir: str | os.PathLike[str] | None = None,
    partitions: int = DEFAULT_PARTITIONS,
    name_sink: Callable[[str], None] | None = None,
) -> Iterator[tuple[str | None, tuple[str, ...]]]:
    """Stream ``(case_id, activities)`` pairs from a log file.

    *spill_dir* receives the CSV partition files (required for CSV,
    unused for XES); the caller owns its lifetime — pass a temporary
    directory and the spill disappears with it.  *name_sink*, when
    given, receives the log's name (XES ``concept:name`` / CSV stem).
    """
    fmt = resolve_format(source, fmt)
    if report is None:
        report = IngestionReport(mode=on_error)
    if not report.source:
        report.source = os.fspath(source)
    if fmt == "xes":
        return _stream_xes(source, on_error, report, name_sink)
    if spill_dir is None:
        raise ValueError("streaming CSV ingestion needs a spill_dir")
    if name_sink is not None:
        name_sink(Path(source).stem)
    return _stream_csv_partitioned(
        source, on_error, report, Path(spill_dir), partitions
    )


def _stream_xes(
    source: str | os.PathLike[str],
    on_error: str,
    report: IngestionReport,
    name_sink: Callable[[str], None] | None,
) -> Iterator[tuple[str | None, tuple[str, ...]]]:
    for trace in iter_xes_traces(source, on_error, report, name_sink):
        yield trace.case_id, trace.activities


def partition_csv(
    source: str | os.PathLike[str] | IO[str],
    spill_dir: str | os.PathLike[str],
    partitions: int = DEFAULT_PARTITIONS,
) -> list[Path]:
    """One streaming pass: route CSV rows into case-hash partition files.

    Every partition file carries the original header, and every row of a
    given case lands in the same partition (``crc32(case_id) % N``), so
    parsing partitions independently reconstructs exactly the batch
    reader's cases.  Rows that the batch reader would reject — too few
    columns, an empty case id — cannot be hashed and are routed to
    partition 0, where ``_read_rows`` applies the identical reject
    accounting.  File-level faults (empty document, missing required
    header columns) raise here, before any spill is written.
    """
    if partitions < 1:
        raise ValueError(f"partitions must be >= 1, got {partitions}")
    spill = Path(spill_dir)
    spill.mkdir(parents=True, exist_ok=True)
    if isinstance(source, (str, os.PathLike)):
        with open(source, newline="", encoding="utf-8") as handle:
            return _partition_rows(handle, spill, partitions)
    return _partition_rows(source, spill, partitions)


def _partition_rows(
    handle: IO[str], spill: Path, partitions: int
) -> list[Path]:
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise LogFormatError("empty CSV document") from None
    try:
        case_idx = header.index(CASE_COLUMN)
        header.index(ACTIVITY_COLUMN)
    except ValueError:
        raise LogFormatError(
            f"CSV header must contain {CASE_COLUMN!r} and {ACTIVITY_COLUMN!r}; got {header!r}"
        ) from None

    paths = [spill / f"part-{index:04d}.csv" for index in range(partitions)]
    handles: list[IO[str]] = []
    # One shared csv.writer formats every record into a small scratch
    # buffer that is then copied to the right sink: the C csv writer
    # keeps a ~128 KiB record buffer per instance, which across
    # ``partitions`` simultaneous writers would dominate the pipeline's
    # whole memory budget.
    scratch = io.StringIO()
    formatter = csv.writer(scratch)

    def formatted(row: list[str]) -> str:
        scratch.seek(0)
        scratch.truncate()
        formatter.writerow(row)
        return scratch.getvalue()

    try:
        header_record = formatted(header)
        for path in paths:
            sink = open(
                path, "w", newline="", encoding="utf-8",
                buffering=_SPILL_BUFFER_BYTES,
            )
            handles.append(sink)
            sink.write(header_record)
        for row in reader:
            if not row:
                continue  # blank line; the batch reader skips it too
            if case_idx < len(row) and row[case_idx].strip():
                index = zlib.crc32(row[case_idx].encode("utf-8")) % partitions
            else:
                index = 0  # unroutable; partition 0 rejects it identically
            handles[index].write(formatted(row))
    finally:
        for sink in handles:
            sink.close()
    return paths


def _stream_csv_partitioned(
    source: str | os.PathLike[str],
    on_error: str,
    report: IngestionReport,
    spill: Path,
    partitions: int,
) -> Iterator[tuple[str | None, tuple[str, ...]]]:
    name = Path(source).stem
    for path in partition_csv(source, spill, partitions):
        with open(path, newline="", encoding="utf-8") as handle:
            partial = _read_rows(handle, name, on_error, report)
        for trace in partial:
            yield trace.case_id, trace.activities

