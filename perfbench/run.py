"""The repository benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload match_wide --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is a separate run that reports the per-layer metrics.  A table of the
metrics goes to standard error; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 when every output checked out, 1 when any check failed, and 2
when the source tree or the arguments are unusable.

See ``perfbench/README.md`` for the workloads, the metrics and what this
benchmark does not measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SOURCE_ROOT = REPO_ROOT / "src"

WORKLOADS = ("match_wide", "composite_testbed", "service_mix")

#: How often set-up is repeated in one run; ``setup_s`` is the median.
SETUP_REPEATS = 3


def _source_tree_present() -> bool:
    return (SOURCE_ROOT / "repro" / "__init__.py").is_file()


def parse_arguments(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny inputs, for the benchmark's own tests (figures meaningless)",
    )
    arguments = parser.parse_args(argv)
    if arguments.seconds <= 0:
        parser.error("--seconds must be positive")
    return arguments


def run(arguments: argparse.Namespace, workdir: Path):
    """Run one workload; returns a :class:`measure.RunResult`."""
    if arguments.workload == "service_mix":
        import service_mix

        return service_mix.run(arguments, workdir, SETUP_REPEATS)
    import closed_loop

    return closed_loop.run(arguments, workdir, SETUP_REPEATS)


def render(result, units: dict[str, str]) -> None:
    """The metric table, notes and failures, on standard error."""
    width = max(len(name) for name in units)
    for name, unit in units.items():
        print(f"  {name:<{width}}  {result.metrics[name]:>14.6g} {unit}",
              file=sys.stderr)
    for note in result.notes:
        print(f"  note: {note}", file=sys.stderr)
    for failure in result.tally.failures[:20] + result.problems:
        print(f"  FAILED: {failure}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    arguments = parse_arguments(argv)
    if not _source_tree_present():
        print(f"perfbench: no program source under {SOURCE_ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE_ROOT))
    sys.path.insert(0, str(BENCH_DIR))
    # SIGTERM unwinds like an exception, so the daemon a run started is
    # stopped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = REPO_ROOT / ".perfbench_work" / f"run-{os.getpid()}-{time.time_ns()}"
    # The program spills ingest partitions to the temporary directory;
    # keep them, and the daemon's, inside the checkout.
    (workdir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir / "tmp")
    try:
        result = run(arguments, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it
    from measure import END_TO_END, PER_LAYER

    units = PER_LAYER if arguments.trace else END_TO_END
    print(f"perfbench {arguments.workload} seed={arguments.seed} "
          f"trace={arguments.trace}:", file=sys.stderr)
    render(result, units)
    print(json.dumps(result.to_json(units), sort_keys=True))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
