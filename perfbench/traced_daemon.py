"""Host the matching daemon with a tracing observer; dump its spans on exit.

Usage: ``python3 perfbench/traced_daemon.py STORE_DIR DUMP_JSON``

The same daemon ``python -m repro serve --workers 1`` runs, built through
the public constructor with ``Observer(Tracer(), MetricsRegistry())``.  It
serves until SIGTERM or SIGINT, then writes ``{"spans": [...], "metrics":
"<Prometheus text>"}`` to DUMP_JSON.  Only the one scheduler thread opens
spans (the HTTP handlers only count), which the single-stack tracer needs.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.obs import MetricsRegistry, Observer, Tracer  # noqa: E402
from repro.service import MatchingService  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    store_dir, dump_path = argv
    observer = Observer(Tracer(), MetricsRegistry())
    service = MatchingService(store_dir, workers=1, observer=observer)
    service.run_until_signal()
    dump = {
        "spans": observer.tracer.export_fragments(),
        "metrics": observer.metrics.to_prometheus_text(),
    }
    partial = f"{dump_path}.partial"
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump(dump, handle)
    os.replace(partial, dump_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
