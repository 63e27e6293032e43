"""Dead-letter archive for rejected ingestion records.

``on_error="skip"``/``"repair"`` ingestion used to reduce a rejected
trace to a counter bump in the :class:`~repro.runtime.IngestionReport` —
the row itself vanished, so there was nothing to debug, re-parse, or
re-submit once the upstream bug was fixed.  Following the
dead-letter-queue shape of streaming pipelines, the archive preserves
every rejected record verbatim:

* **Content-addressed layout** — each payload lands at
  ``<root>/<hh>/<digest>/payload.bin`` where ``digest`` is the payload's
  SHA-256 and ``hh`` its first two hex digits (fan-out so a dirty feed
  doesn't produce a million-entry directory).
* **Error context alongside** — ``context.json`` next to the payload
  records every occurrence: source location, the problem string the
  parser reported, the ``on_error`` mode, and any extra fields the call
  site adds.
* **Idempotent by construction** — re-ingesting the same dirty file
  re-archives the same bytes to the same path; the payload is written
  once and only the occurrence list grows, so an operator can diff,
  fix, and re-submit by digest without ever double-counting.

Writes go through :func:`atomic_write` (temp file, fsync,
``os.replace``) so a crash mid-archive never leaves a torn payload that
a later idempotency check would trust.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterator

from repro.obs import NULL_OBSERVER, Observer, get_logger

_logger = get_logger(__name__)

_PAYLOAD_NAME = "payload.bin"
_CONTEXT_NAME = "context.json"


def atomic_write(directory: Path, target: Path, data: bytes) -> Path:
    """Write *data* to *target* atomically (tempfile, fsync, ``os.replace``).

    A crash at any point leaves either the old file or the new one, never
    a torn mix; the temporary is unlinked on failure.
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


class DeadLetterArchive:
    """A directory of content-addressed rejected ingestion records."""

    def __init__(
        self,
        root: str | os.PathLike[str],
        observer: Observer | None = None,
    ):
        self.root = Path(root)
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.archived = 0

    # ------------------------------------------------------------------
    def path_for(self, digest: str) -> Path:
        return self.root / digest[:2] / digest

    # ------------------------------------------------------------------
    def put(self, payload: bytes, context: dict[str, Any]) -> str:
        """Archive *payload* with *context*; returns its content digest.

        The payload is written once per digest; *context* is appended to
        the entry's occurrence list every time, so repeated rejections
        of the same bytes stay visible without duplicating storage.
        """
        digest = hashlib.sha256(payload).hexdigest()
        entry = self.path_for(digest)
        entry.mkdir(parents=True, exist_ok=True)
        payload_path = entry / _PAYLOAD_NAME
        if not payload_path.exists():
            atomic_write(entry, payload_path, payload)
        context_path = entry / _CONTEXT_NAME
        document = {"digest": digest, "occurrences": []}
        if context_path.exists():
            try:
                document = json.loads(context_path.read_text())
            except (OSError, ValueError):  # torn context: rebuild it
                _logger.warning(
                    "rebuilding unreadable dead-letter context %s", context_path
                )
        document["occurrences"].append(dict(context))
        atomic_write(
            entry,
            context_path,
            json.dumps(document, indent=2, sort_keys=True, default=str).encode(),
        )
        self.archived += 1
        self.observer.count(
            "dead_letters_total",
            help="rejected ingestion records preserved in the archive",
        )
        _logger.debug("dead-lettered %s: %s", digest[:12], context.get("problem"))
        return digest

    # ------------------------------------------------------------------
    def entries(self) -> Iterator[str]:
        """Digests currently archived, in sorted order."""
        if not self.root.is_dir():
            return
        for bucket in sorted(self.root.iterdir()):
            if not bucket.is_dir():
                continue
            for entry in sorted(bucket.iterdir()):
                if (entry / _PAYLOAD_NAME).is_file():
                    yield entry.name

    def load(self, digest: str) -> tuple[bytes, dict[str, Any]]:
        """Payload bytes and context document for *digest*.

        Raises :class:`KeyError` for unknown digests and refuses (with
        ``ValueError``) payloads whose bytes no longer match their
        digest — a corrupted archive entry must not be re-submitted as
        if it were the original record.
        """
        entry = self.path_for(digest)
        payload_path = entry / _PAYLOAD_NAME
        try:
            payload = payload_path.read_bytes()
        except FileNotFoundError:
            raise KeyError(digest) from None
        if hashlib.sha256(payload).hexdigest() != digest:
            raise ValueError(
                f"dead-letter payload {digest[:12]} fails its digest check"
            )
        try:
            context = json.loads((entry / _CONTEXT_NAME).read_text())
        except (OSError, ValueError):
            context = {"digest": digest, "occurrences": []}
        return payload, context
