"""Shared measurement helpers: statistics, memory, layer attribution, results.

Layer attribution follows the spans ``repro.obs`` already emits plus the
benchmark's own ``bench.*`` spans around its calls into the program.  A
span's *self time* is its duration minus its children's, so the self
times of one span tree add up to the root's duration; every span name is
assigned to exactly one layer below, and names not listed count as
unattributed (the benchmark's own glue and matcher bookkeeping).
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Iterable

import numpy as np

#: End-to-end metrics (``--trace 0``): name -> unit.  See README.md.
END_TO_END = {
    "setup_s": "s",
    "pairs_per_s": "pairs/s",
    "match_p50_s": "s",
    "job_p50_s": "s",
    "job_p95_s": "s",
    "capacity_jobs_per_s": "jobs/s",
    "f_measure": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  See README.md.
PER_LAYER = {
    "logs.parse_s": "s",
    "logs.events_per_s": "events/s",
    "graph.build_s": "s",
    "core.fixpoint_s": "s",
    "core.pair_updates": "count",
    "core.iterations": "count",
    "composite.round_s": "s",
    "composite.candidate_s": "s",
    "composite.rounds": "count",
    "composite.candidates_evaluated": "count",
    "composite.merges_accepted": "count",
    "composite.abort_ratio": "ratio",
    "composite.screened_ratio": "ratio",
    "similarity.label_cache_hit_ratio": "ratio",
    "matching.assign_s": "s",
    "store.ingest_s": "s",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.match_hit_ratio": "ratio",
    "store.counts_hit_ratio": "ratio",
    "store.append_path_ratio": "ratio",
    "store.bytes_per_input_byte": "ratio",
    "service.submit_s": "s",
    "service.queue_wait_p50_s": "s",
    "service.queue_wait_p95_s": "s",
    "service.run_s": "s",
    "service.latency_p50_s.computed": "s",
    "service.latency_p50_s.store": "s",
    "service.latency_p50_s.store-partial": "s",
    "service.latency_p50_s.deduped": "s",
    "service.dedup_ratio": "ratio",
    "service.queue_depth_max": "count",
    "bench.gen_lag_p95_s": "s",
    "bench.append_deferrals": "count",
    "bench.trace_overhead": "ratio",
    "bench.unattributed_share": "ratio",
}

#: Span name (``[k]`` suffixes stripped) -> layer, for names matched exactly.
_LAYER_OF_SPAN = {
    "bench.load": "logs.parse",
    "service.ingest": "logs.parse",
    "graph.build": "graph.build",
    "ems.fixpoint": "core.fixpoint",
    "ems.iteration": "core.fixpoint",
    "pruning.freeze": "core.fixpoint",
    "composite.round": "composite.round",
    "workers.dispatch": "composite.round",
    "candidate.evaluate": "composite.candidate",
    "match.assign": "matching.assign",
    "store.get": "store.get",
    "store.sql": "store.get",
    "match.store.lookup": "store.get",
    "store.put": "store.put",
    "service.job": "service.job",
}

#: Every layer a span can be attributed to (``ingest.*`` -> store.ingest).
LAYERS = tuple(sorted(set(_LAYER_OF_SPAN.values()) | {"store.ingest"}))

_INDEX_SUFFIX = re.compile(r"\[[^\]]*\]$")


def layer_of(span_name: str) -> str | None:
    """The layer a span belongs to, or ``None`` when unattributed."""
    name = _INDEX_SUFFIX.sub("", span_name)
    if name.startswith("ingest."):
        return "store.ingest"
    return _LAYER_OF_SPAN.get(name)


def layer_self_times(roots: Iterable) -> dict[str, float]:
    """Summed self time per layer over span trees (``repro.obs.Span``)."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for root in roots:
        for span in root.walk():
            layer = layer_of(span.name)
            if layer is not None:
                totals[layer] += span.self_time
    return totals


def spans_named(roots: Iterable, name: str) -> list:
    """Every span called *name* (``[k]`` suffixes ignored) in the trees."""
    return [
        span for root in roots for span in root.walk()
        if _INDEX_SUFFIX.sub("", span.name) == name
    ]


def counter_values(exposition) -> dict[str, float]:
    """Sample name -> value from a registry or its Prometheus text."""
    text = exposition if isinstance(exposition, str) else exposition.to_prometheus_text()
    values: dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quantile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the *q*-quantile (0 < q < 1).

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics.
    Per-pair costs here cluster by process tree with wide gaps between
    clusters; a single order statistic then jumps from one cluster to the
    next when a seed reorders two pairs, while this estimate moves
    smoothly.
    """
    if not values:
        raise ValueError("quantile of no values")
    ordered = np.sort(np.asarray(values, dtype=float))
    count = len(ordered)
    if count == 1:
        return float(ordered[0])
    a, b = q * (count + 1), (1.0 - q) * (count + 1)
    points = (np.arange(100_000) + 0.5) / 100_000
    log_density = (a - 1.0) * np.log(points) + (b - 1.0) * np.log1p(-points)
    density = np.exp(log_density - log_density.max())
    weights = np.bincount((points * count).astype(int), weights=density,
                          minlength=count)
    return float(weights @ ordered / weights.sum())


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------
#: Seconds one :meth:`SpeedProbe.sample` takes on the recording machine
#: (2 vCPUs at 2.1 GHz, Python 3.11, NumPy 2.4).
REFERENCE_S = 0.0155


class SpeedProbe:
    """A fixed workload, timed between measured operations.

    On the shared recording machine the same work takes 20-30% more or
    less time from one minute to the next (a match of one pair, with the
    same count of pair updates, took 0.48 s in one run and 0.72 s in
    another).  The benchmark times this probe between operations and
    reports each operation's time scaled by ``REFERENCE_S`` over the
    probe's local median: seconds at the recording machine's reference
    speed.  The probe shares no code with the program, so a change to the
    program moves the scaled times as much as the raw ones.  It mixes
    Python dict updates with NumPy gathers and reductions, as parsing,
    graph building and the fixpoint do.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(2014)
        self._values = rng.random(200_000)
        self._index = rng.integers(0, 200_000, 200_000)
        self.samples: list[float] = []

    def sample(self) -> float:
        started = time.perf_counter()
        counts: dict[int, int] = {}
        for number in range(40_000):
            counts[number % 97] = counts.get(number % 97, 0) + number
        total = 0.0
        for _ in range(10):
            gathered = self._values[self._index]
            np.maximum(gathered, self._values, out=gathered)
            total += float(gathered.sum())
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def scale(self, first: int, stop: int) -> float:
        """``REFERENCE_S`` over the median of ``samples[first:stop]``."""
        window = self.samples[max(0, first):stop]
        return REFERENCE_S / median(window)


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS record of this process (Linux >= 4.0).

    Set-up holds every generated log in memory; resetting after set-up
    makes ``peak_rss_mb`` the peak of the measured work alone.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the peak then includes set-up; still a valid upper bound


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Attempted/failed accounting; every failure keeps a short reason."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.failures.append(reason)


@dataclass
class RunResult:
    """What one benchmark run reports."""

    tally: Tally
    metrics: dict[str, float] = field(default_factory=dict)
    #: Correctness problems that are not per-operation failures.
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0 and not self.problems

    def to_json(self, units: dict[str, str]) -> dict:
        """The result line; *units* names exactly the metrics to report."""
        if set(units) != set(self.metrics):
            raise RuntimeError(
                f"metric set mismatch: missing {sorted(set(units) - set(self.metrics))},"
                f" unexpected {sorted(set(self.metrics) - set(units))}"
            )
        return {
            "correct": self.correct,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": {
                name: {"value": float(self.metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }
