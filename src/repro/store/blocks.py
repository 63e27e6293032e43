"""Spill-to-disk trace blocks: the unit of sharded ingestion.

A *block* is a bounded run of traces reduced to what Definition-1
statistics actually consume — ``(case_id, activity sequence)`` pairs —
serialized one JSON array per line::

    ["case-17", ["register", "triage", "close"]]

JSONL was chosen over pickle deliberately: a block is plain data with no
code-execution surface, it is inspectable with standard tools when an
ingestion goes wrong, and a torn final line (crash mid-spill) fails
loudly at ``json.loads`` instead of deserializing garbage.  Blocks are
written to a caller-owned spill directory as ``block-000000.jsonl``,
``block-000001.jsonl``, ... and deleted with that directory; they are
scratch space, not durable state (durable derived results live in the
:class:`~repro.store.LogStore`).

Memory contract: :class:`TraceBlockWriter` holds at most ``block_traces``
traces before flushing, and :func:`iter_block` yields one trace at a
time — both ends of the spill are O(block), which is what makes the
sharded pipeline's peak ingestion memory O(shard) instead of O(log).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Iterator, Sequence

from repro.exceptions import LogFormatError

#: Traces per block unless the caller says otherwise.  Big enough that
#: the per-block overhead (file open, span) amortizes, small enough that
#: a block of long traces stays comfortably in memory.
DEFAULT_BLOCK_TRACES = 512


class TraceBlockWriter:
    """Accumulate traces and spill them to numbered block files.

    Usage::

        writer = TraceBlockWriter(spill_dir, block_traces=512)
        for case_id, activities in traces:
            writer.add(case_id, activities)
        blocks = writer.finish()   # list of block paths, spill complete

    The writer never holds more than one block of traces; ``finish()``
    flushes the partial last block and returns every path written, in
    order.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        block_traces: int = DEFAULT_BLOCK_TRACES,
    ):
        if block_traces < 1:
            raise ValueError(f"block_traces must be >= 1, got {block_traces}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.block_traces = block_traces
        self.traces_written = 0
        self._pending: list[tuple[str | None, Sequence[str]]] = []
        self._paths: list[Path] = []
        self._finished = False

    def add(self, case_id: str | None, activities: Sequence[str]) -> None:
        """Buffer one trace; spills a block when the buffer fills."""
        if self._finished:
            raise ValueError("writer already finished")
        self._pending.append((case_id, activities))
        self.traces_written += 1
        if len(self._pending) >= self.block_traces:
            self._flush()

    def finish(self) -> list[Path]:
        """Flush the partial last block and return all block paths."""
        if not self._finished:
            if self._pending:
                self._flush()
            self._finished = True
        return list(self._paths)

    def _flush(self) -> None:
        path = self.directory / f"block-{len(self._paths):06d}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for case_id, activities in self._pending:
                json.dump(
                    [case_id, list(activities)],
                    handle,
                    ensure_ascii=False,
                    separators=(",", ":"),
                )
                handle.write("\n")
        self._paths.append(path)
        self._pending.clear()


def iter_block(
    source: str | os.PathLike[str] | IO[str],
) -> Iterator[tuple[str | None, tuple[str, ...]]]:
    """Stream the ``(case_id, activities)`` pairs of one block file.

    A malformed line — torn write, foreign file in the spill directory —
    raises :class:`LogFormatError` naming the line, so a bad block fails
    the shard loudly instead of contributing partial counts.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, encoding="utf-8") as handle:
            yield from _iter_lines(handle, os.fspath(source))
    else:
        yield from _iter_lines(source, getattr(source, "name", "<stream>"))


def _iter_lines(
    handle: IO[str], origin: str
) -> Iterator[tuple[str | None, tuple[str, ...]]]:
    for line_number, line in enumerate(handle, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            case_id, activities = record
        except (ValueError, TypeError) as exc:
            raise LogFormatError(
                f"corrupt trace block {origin} line {line_number}: {exc}"
            ) from None
        if case_id is not None and not isinstance(case_id, str):
            raise LogFormatError(
                f"corrupt trace block {origin} line {line_number}: "
                f"case id must be a string or null"
            )
        if not isinstance(activities, list) or not all(
            isinstance(activity, str) for activity in activities
        ):
            raise LogFormatError(
                f"corrupt trace block {origin} line {line_number}: "
                f"activities must be a list of strings"
            )
        yield case_id, tuple(activities)
