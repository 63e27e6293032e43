"""Micro-benchmarks and regression harness for the computational kernels.

Not a paper figure — these pin the cost of the individual building
blocks (graph construction, one exact EMS run on the fixpoint kernel and
on the per-pair test oracle, the I = 0 estimation, the Hungarian
assignment, the cold CSV parse) so regressions in the hot paths are
visible.

Two entry points:

* ``pytest benchmarks/bench_core_kernels.py --benchmark-only`` — the
  pytest-benchmark view, convenient for local profiling.
* ``python benchmarks/bench_core_kernels.py`` — the dependency-free
  regression harness.  It times every scenario, records the mean/min
  wall time and the deterministic ``pair_updates`` work metric, and
  writes the machine-readable trajectory to ``BENCH_core.json`` at the
  repo root.  ``--check BASELINE`` compares against a committed baseline
  and exits non-zero on large regressions; times are normalized by a
  small NumPy calibration workload measured in the same process, so the
  comparison tolerates CI machines of different speeds.
"""

from __future__ import annotations

import argparse
import atexit
import json
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
# src/ for the package, the repo root for the test oracles the
# composite_search_cold and ems_exact_20_reference scenarios time
# (tests/composite_oracle.py, tests/ems_oracle.py).
for _path in (_REPO_ROOT / "src", _REPO_ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np

from repro.core.composite import CompositeMatcher
from repro.core.config import EMSConfig
from repro.core.ems import EMSEngine
from repro.graph.dependency import DependencyGraph
from repro.logs.csvio import read_csv, write_csv
from repro.logs.log import EventLog
from repro.logs.stats import compute_statistics
from repro.matching.assignment import max_weight_assignment
from repro.obs import (
    MetricsRegistry,
    Observer,
    RunManifest,
    Tracer,
    environment_metadata,
)
from repro.matchers import EMSMatcher
from repro.service import MatchingService
from repro.store import (
    LogStore,
    MatchStore,
    ingest_graph,
    ingest_statistics,
    match_stored,
)
from repro.synthesis.corpus import build_scalability_pair
from tests.composite_oracle import ColdCompositeMatcher
from tests.ems_oracle import reference_kernel

#: The Figure-8 scalability scenario every timing below runs against.
SCENARIO = {"activities": 20, "seed": 7, "traces_per_log": 60}

#: The composite-search scenario: a large log pair with planted
#: always-consecutive chains, where the greedy loop accepts several
#: merges.  Rebuilding the log/statistics/graph per candidate dominates
#: the cold search here, which is exactly what the incremental engine
#: (delta count merges + patched levels + warm-started fixpoints)
#: avoids — the ``speedup_composite`` floor in :func:`compare` keeps
#: that optimization honest.
COMPOSITE_SCENARIO = {
    "symbols": 6, "traces": 14000, "seed": 13, "chains": 5, "chain_rate": 0.02,
}

#: The large-vocabulary scenario of the fixpoint's peak-memory ceiling.
#: At 300 activities the kernel computes its contributions in bounded
#: chunks of the edge-pair grid, and ``memory_reduction_sparse`` in
#: :func:`compare` keeps its peak at least 4x below the dense kernel it
#: replaced.
MEMORY_SCENARIO = {"activities": 300, "seed": 21, "traces_per_log": 40}

#: Tracemalloc peak (bytes) of one exact EMS run on MEMORY_SCENARIO under
#: the dense vectorized kernel, whose resident (pairs, A, B) tensors this
#: kernel replaced.  Recorded in BENCH_core.json before that kernel was
#: deleted; it stays the numerator of ``memory_reduction_sparse``, so the
#: 4x floor caps the production peak at about 23.8 MB.
DENSE_KERNEL_PEAK_BYTES = 95_211_388

#: The out-of-core ingestion scenario (PR 8): a CSV large enough that
#: the monolithic path's materialized :class:`EventLog` dominates peak
#: memory.  The streamed pipeline partitions the CSV rows by case-id hash
#: to disk and counts one partition's traces at a time, so its peak
#: tracks the partition, not the log — ``ingest_streamed_memory`` in
#: :func:`compare` holds the streamed/monolithic peak ratio under 0.25x.  The same file backs the
#: ``stats_store_warm`` floor: a warm :class:`~repro.store.LogStore`
#: serves the counts from SQLite without parsing, >= 5x faster than the
#: cold parse+count.
INGEST_SCENARIO = {"cases": 4000, "events_per_case": 8, "activities": 12, "seed": 17}

#: The out-of-core matching scenario (PR 9): a CSV log pair large enough
#: that the cold end-to-end match (parse both, build both graphs, run
#: the EMS fixpoint, assign) dwarfs a match-store hit, which costs two
#: content digests, one verified matrix row, and the assignment.
#: ``match_store_warm`` in :func:`compare` holds the warm path >= 10x
#: faster.
MATCH_STORE_SCENARIO = {
    "cases": 1500, "events_per_case": 8, "activities": 24, "seed": 29,
}
#: The cold-parse scenario: ``read_csv`` of the first log of one
#: Figure-8 pair, the shape of the ``match_wide`` perfbench inputs.
CSV_READ_SCENARIO = {"activities": 100, "seed": 7, "traces_per_log": 80}


def build_composite_pair(
    symbols: int, traces: int, seed: int, chains: int, chain_rate: float
) -> tuple[EventLog, EventLog]:
    """A deterministic log pair with rare planted composite chains.

    Both logs share the same random base traces (disjoint vocabularies);
    the second additionally contains *chains* multi-event sequences that
    always occur consecutively (confidence 1.0) but only in a
    *chain_rate* fraction of traces, so every candidate merge touches
    few traces — the delta-merge sweet spot.
    """
    rng = random.Random(seed)
    base = [f"a{i}" for i in range(symbols)]
    planted = [[f"c{k}{i}" for i in range(2 + (k % 2))] for k in range(chains)]
    first_traces, second_traces = [], []
    for _ in range(traces):
        length = rng.randint(5, 9)
        trace = [rng.choice(base) for _ in range(length)]
        first_traces.append(trace)
        relabeled = [activity.replace("a", "b") for activity in trace]
        if rng.random() < chain_rate:
            position = rng.randint(0, len(relabeled))
            relabeled[position:position] = planted[rng.randrange(chains)]
        second_traces.append(relabeled)
    return (
        EventLog(first_traces, name="composite-bench-a"),
        EventLog(second_traces, name="composite-bench-b"),
    )

def write_ingest_csv(path: Path, cases: int, events_per_case: int,
                     activities: int, seed: int) -> None:
    """The deterministic CSV the ingestion scenarios run against."""
    rng = random.Random(seed)
    names = [f"act-{i}" for i in range(activities)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("case_id,activity,timestamp\n")
        for case in range(cases):
            for position in range(rng.randint(1, events_per_case)):
                handle.write(f"case-{case},{rng.choice(names)},{position}.0\n")


#: Default output of the harness (committed as the CI baseline).
DEFAULT_OUTPUT = _REPO_ROOT / "BENCH_core.json"


# ----------------------------------------------------------------------
# pytest-benchmark view
# ----------------------------------------------------------------------
try:  # pragma: no cover - only used under pytest
    import pytest
except ImportError:  # pragma: no cover
    pytest = None

if pytest is not None:

    @pytest.fixture(scope="module")
    def pair_20():
        return build_scalability_pair(
            SCENARIO["activities"], seed=SCENARIO["seed"],
            traces_per_log=SCENARIO["traces_per_log"],
        )

    @pytest.fixture(scope="module")
    def graphs_20(pair_20):
        return (
            DependencyGraph.from_log(pair_20.log_first),
            DependencyGraph.from_log(pair_20.log_second),
        )

    def test_dependency_graph_construction(benchmark, pair_20):
        graph = benchmark(DependencyGraph.from_log, pair_20.log_first)
        assert len(graph.nodes) == 20

    def test_ems_exact_20_events(benchmark, graphs_20):
        engine = EMSEngine()
        result = benchmark(engine.similarity, *graphs_20)
        assert result.converged

    def test_ems_estimation_budget_zero(benchmark, graphs_20):
        engine = EMSEngine(EMSConfig(estimation_iterations=0))
        result = benchmark(engine.similarity, *graphs_20)
        assert result.converged

    def test_ems_forward_only(benchmark, graphs_20):
        engine = EMSEngine(EMSConfig(direction="forward"))
        result = benchmark(engine.similarity, *graphs_20)
        assert result.converged

    def test_hungarian_50x50(benchmark):
        rng = np.random.default_rng(3)
        weights = rng.random((50, 50))
        assignment = benchmark(max_weight_assignment, weights)
        assert len(assignment) == 50

    @pytest.fixture(scope="module")
    def composite_pair():
        return build_composite_pair(**COMPOSITE_SCENARIO)

    def test_composite_incremental_search(benchmark, composite_pair):
        matcher = CompositeMatcher(
            EMSConfig(), delta=0.001, min_confidence=0.9, max_run_length=3
        )
        result = benchmark(matcher.match, *composite_pair)
        assert result.accepted_second

    def test_composite_warm_cache_search(benchmark, composite_pair, tmp_path):
        # pytest-benchmark's calibration run populates the match store's
        # evaluations table, so the timed rounds measure the warm path.
        config = EMSConfig()
        store = MatchStore(tmp_path / "match.db")

        def run():
            matcher = CompositeMatcher(
                config, delta=0.001, min_confidence=0.9, max_run_length=3,
                store=store,
            )
            return matcher.match(*composite_pair)

        result = benchmark(run)
        store.close()
        assert result.accepted_second

    def test_playout_1000_traces(benchmark):
        from repro.synthesis.generator import random_process_tree
        from repro.synthesis.playout import play_out

        tree = random_process_tree([f"a{i}" for i in range(15)], random.Random(1))
        log = benchmark(play_out, tree, 1000, random.Random(2))
        assert len(log) == 1000


# ----------------------------------------------------------------------
# Regression harness
# ----------------------------------------------------------------------
#: Calibration runs per harness run; ``calibration_time`` is their median.
CALIBRATION_RUNS = 5


def _calibration_run() -> float:
    """Best-of-5 wall time of a fixed NumPy workload."""
    rng = np.random.default_rng(0)
    a = rng.random((200, 200))
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(20):
            a = np.tanh(a @ a.T / 200.0)
        best = min(best, time.perf_counter() - started)
    return best


def _calibration_time() -> float:
    """Wall time of a fixed NumPy workload, for machine normalization.

    One run is bimodal on a two-CPU machine: the multithreaded matrix
    product takes 10-20x longer while another process holds a CPU.
    A baseline recorded in the slow mode makes every scenario look that
    much slower, so the median of :data:`CALIBRATION_RUNS` runs is used.
    """
    return statistics.median(_calibration_run() for _ in range(CALIBRATION_RUNS))


def _scenarios():
    """Yield ``(name, fn)``; *fn* returns ``pair_updates`` or ``None``."""
    pair = build_scalability_pair(
        SCENARIO["activities"], seed=SCENARIO["seed"],
        traces_per_log=SCENARIO["traces_per_log"],
    )
    graphs = (
        DependencyGraph.from_log(pair.log_first),
        DependencyGraph.from_log(pair.log_second),
    )

    def graph_build():
        DependencyGraph.from_log(pair.log_first)
        return None

    def ems(**config):
        return EMSEngine(EMSConfig(**config)).similarity(*graphs).pair_updates

    def ems_reference():
        # The per-pair loop of formula (1), the test oracle the kernel is
        # differentially pinned to; the numerator of speedup_exact_20.
        with reference_kernel():
            return ems()

    def ems_noop_observer():
        # Same workload as ems_exact_20, but through an explicitly
        # constructed no-op Observer — the pair of timings pins the cost
        # of the disabled instrumentation hooks
        # (``noop_observer_overhead`` in the payload).
        engine = EMSEngine(observer=Observer())
        return engine.similarity(*graphs).pair_updates

    def hungarian():
        rng = np.random.default_rng(3)
        max_weight_assignment(rng.random((50, 50)))
        return None

    composite_logs = build_composite_pair(**COMPOSITE_SCENARIO)

    def composite_search(incremental: bool):
        # The cold scenario runs the production greedy loop on the
        # full-rebuild test oracle: every candidate rewrites its log and
        # rebuilds its graph.  Both scenarios evaluate the same candidates
        # in the same order, so they report the same pair_updates.
        cls = CompositeMatcher if incremental else ColdCompositeMatcher
        matcher = cls(
            EMSConfig(), delta=0.001, min_confidence=0.9, max_run_length=3
        )
        result = matcher.match(*composite_logs)
        assert result.accepted_second  # the planted chains must be found
        return result.stats.pair_updates

    def composite_search_warm_cache():
        # Same workload as composite_search_incremental, but with a match
        # store attached.  The harness's untimed warm-up call populates
        # its evaluations table, so the timed repeats measure the warm
        # path: every candidate evaluation is served from a
        # digest-verified row, and what remains is the two count tables,
        # the initial similarity, discovery on the patched counters, the
        # accepted merges and the one rewrite of the merged logs.
        # ``warm_cache_speedup`` (vs the cold search) carries a 5x floor
        # in :func:`compare`.
        store_dir = tempfile.mkdtemp(prefix="bench_evalstore_")
        atexit.register(shutil.rmtree, store_dir, ignore_errors=True)
        store = MatchStore(Path(store_dir) / "match.db")

        def run():
            config = EMSConfig()
            matcher = CompositeMatcher(
                config, delta=0.001, min_confidence=0.9, max_run_length=3,
                store=store,
            )
            result = matcher.match(*composite_logs)
            assert result.accepted_second
            return result.stats.pair_updates

        return run

    ingest_dir = Path(tempfile.mkdtemp(prefix="bench_ingest_"))
    atexit.register(shutil.rmtree, ingest_dir, ignore_errors=True)
    ingest_csv = ingest_dir / "events.csv"
    write_ingest_csv(ingest_csv, **INGEST_SCENARIO)
    warm_store = LogStore(ingest_dir / "store.db")

    def stats_ingest_cold():
        result = ingest_statistics(ingest_csv)
        assert result.statistics.trace_count == INGEST_SCENARIO["cases"]
        return None

    def stats_ingest_store_warm():
        # The harness's untimed warm-up call populates the store, so the
        # timed repeats measure the warm path: one content digest of the
        # file plus a verified SQLite row — no parsing, no counting.
        # ``stats_store_warm`` (vs stats_ingest_cold) carries a 5x floor
        # in :func:`compare`.
        result = ingest_statistics(ingest_csv, store=warm_store)
        assert result.statistics.trace_count == INGEST_SCENARIO["cases"]
        return None

    match_dir = Path(tempfile.mkdtemp(prefix="bench_match_"))
    atexit.register(shutil.rmtree, match_dir, ignore_errors=True)
    match_a = match_dir / "a.csv"
    match_b = match_dir / "b.csv"
    write_ingest_csv(match_a, **MATCH_STORE_SCENARIO)
    write_ingest_csv(
        match_b, **{**MATCH_STORE_SCENARIO, "seed": MATCH_STORE_SCENARIO["seed"] + 1}
    )

    csv_read_pair = build_scalability_pair(
        CSV_READ_SCENARIO["activities"], seed=CSV_READ_SCENARIO["seed"],
        traces_per_log=CSV_READ_SCENARIO["traces_per_log"],
    )
    csv_read_path = ingest_dir / "fig8.csv"
    write_csv(csv_read_pair.log_first, csv_read_path)

    def csv_read_fig8():
        log = read_csv(csv_read_path)
        assert len(log) == CSV_READ_SCENARIO["traces_per_log"]
        return None

    def match_scaled_cold():
        # The cold end-to-end pipeline match: parse both files, build
        # both dependency graphs, run the fixpoint, assign.  This is the
        # numerator of the ``match_store_warm`` floor.
        graph_first, _ = ingest_graph(match_a)
        graph_second, _ = ingest_graph(match_b)
        EMSMatcher().match_graphs(graph_first, graph_second)
        return None

    warm_match_store = MatchStore(match_dir / "match.db")
    _, seed_provenance = match_stored(
        match_a, match_b, matcher=EMSMatcher(), store=warm_match_store
    )
    assert seed_provenance["match_mode"] == "computed"

    def match_store_warm():
        # Full hit: two content digests, one digest-verified matrix row,
        # assignment.  No parse, no graphs, no fixpoint.
        _, provenance = match_stored(
            match_a, match_b, matcher=EMSMatcher(), store=warm_match_store
        )
        assert provenance["match_mode"] == "store", provenance
        return None

    def service_submit_to_result_warm():
        # The daemon's whole serving loop, measured warm: HTTP submit ->
        # queue insert -> scheduler claim -> match-store hit -> result
        # fetch.  Each timed call jitters `threshold` by i * 1e-9 so it
        # is a *fresh job* every time (threshold is part of the job
        # identity key) while the similarity matrix in the shared match
        # store stays warm (threshold only affects the assignment, not
        # the matrix content key).  The first call is the cold seed;
        # every later call must report match_mode == "store".
        # ``service_warm_speedup`` (vs match_scaled_cold) carries a 2x
        # floor in :func:`compare`: answering from the daemon must beat
        # recomputing in-process, HTTP and queue overhead included.
        import urllib.request

        service_dir = Path(tempfile.mkdtemp(prefix="bench_service_"))
        atexit.register(shutil.rmtree, service_dir, ignore_errors=True)
        service = MatchingService(
            service_dir / "store", workers=1, poll_interval=0.005
        )
        service.start()
        atexit.register(service.stop)
        base = f"http://{service.host}:{service.port}"
        calls = [0]

        def call(method, path, payload=None):
            data = json.dumps(payload).encode() if payload is not None else None
            request = urllib.request.Request(
                base + path, data=data, method=method
            )
            with urllib.request.urlopen(request) as response:
                return json.loads(response.read().decode("utf-8"))

        def run():
            calls[0] += 1
            spec = {
                "log_first": str(match_a),
                "log_second": str(match_b),
                "threshold": calls[0] * 1e-9,
            }
            job = call("POST", "/jobs", spec)
            assert job["deduped"] is False, job
            deadline = time.time() + 120
            while time.time() < deadline:
                document = call("GET", f"/jobs/{job['id']}")
                if document["state"] == "done":
                    break
                assert document["state"] in ("queued", "running"), document
                time.sleep(0.002)
            else:
                raise AssertionError(f"job never completed: {document}")
            result = call("GET", f"/jobs/{job['id']}/result")["result"]
            if calls[0] > 1:  # the first call seeds the matrix cold
                assert result["provenance"]["match_mode"] == "store", (
                    result["provenance"]
                )
            return None

        return run

    yield "graph_build_20", graph_build
    yield "ems_exact_20", ems
    yield "ems_exact_20_reference", ems_reference
    yield "ems_exact_20_noop_observer", ems_noop_observer
    yield "ems_exact_20_nopruning", lambda: ems(use_pruning=False)
    yield "ems_estimation_I0_20", lambda: ems(estimation_iterations=0)
    yield "ems_forward_20", lambda: ems(direction="forward")
    yield "hungarian_50x50", hungarian
    yield "composite_search_cold", lambda: composite_search(False)
    yield "composite_search_incremental", lambda: composite_search(True)
    yield "composite_search_warm_cache", composite_search_warm_cache()
    yield "stats_ingest_cold", stats_ingest_cold
    yield "csv_read_fig8", csv_read_fig8
    yield "stats_ingest_store_warm", stats_ingest_store_warm
    yield "match_scaled_cold", match_scaled_cold
    yield "match_store_warm", match_store_warm
    yield "service_submit_to_result_warm", service_submit_to_result_warm()


def _memory_profile() -> dict:
    """Tracemalloc peak of one exact EMS run on the large vocabulary.

    The dependency-graph caches (levels, reversed views, predecessor
    CSR) are warmed before tracing starts so the measured peak isolates
    the kernel's own scratch memory.
    """
    import tracemalloc

    pair = build_scalability_pair(
        MEMORY_SCENARIO["activities"], seed=MEMORY_SCENARIO["seed"],
        traces_per_log=MEMORY_SCENARIO["traces_per_log"],
    )
    graphs = (
        DependencyGraph.from_log(pair.log_first),
        DependencyGraph.from_log(pair.log_second),
    )
    for graph in graphs:
        graph.levels()
        graph.reversed().levels()
        graph.predecessor_csr()
        graph.reversed().predecessor_csr()
    engine = EMSEngine()
    tracemalloc.start()
    try:
        result = engine.similarity(*graphs)
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return {"peak_bytes": peak, "pair_updates": result.pair_updates}


def _ingest_memory_profile() -> dict:
    """Tracemalloc peaks of monolithic vs streamed ingestion, same CSV.

    The monolithic path materializes the whole :class:`EventLog` before
    counting; the streamed pipeline partitions the rows by case-id hash
    to disk and counts one partition's traces at a time, so its peak
    tracks the largest partition.  Both must produce identical
    statistics — the ratio is only meaningful for equivalent
    computations.
    """
    import tracemalloc

    scratch = Path(tempfile.mkdtemp(prefix="bench_ingest_mem_"))
    atexit.register(shutil.rmtree, scratch, ignore_errors=True)
    csv_path = scratch / "events.csv"
    write_ingest_csv(csv_path, **INGEST_SCENARIO)

    tracemalloc.start()
    try:
        monolithic = compute_statistics(read_csv(csv_path, name="bench"))
    finally:
        _, monolithic_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    tracemalloc.start()
    try:
        streamed = ingest_statistics(csv_path)
    finally:
        _, streamed_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    if streamed.statistics != monolithic:
        raise AssertionError(
            "streamed ingestion diverged from the batch statistics"
        )
    return {
        "monolithic": {"peak_bytes": monolithic_peak},
        "streamed": {"peak_bytes": streamed_peak},
    }


#: Overhead ratios ``(payload key, numerator, denominator)``: each
#: compares two scenarios running the same workload, one with a wrapper
#: that must be free.  Timed in separate blocks, a slow window of a shared
#: machine lands on one side only and swings the ratio past its 1.1x
#: ceiling either way, so the two are timed again in alternation and the
#: ratio is min over min of those runs.
PAIRED_OVERHEADS = (
    ("noop_observer_overhead", "ems_exact_20_noop_observer", "ems_exact_20"),
)


def _paired_overhead(numerator, denominator, repeats: int) -> float:
    """min(numerator) / min(denominator) over alternating runs."""
    times: tuple[list[float], list[float]] = ([], [])
    for _ in range(repeats):
        for fn, sink in zip((numerator, denominator), times):
            started = time.perf_counter()
            fn()
            sink.append(time.perf_counter() - started)
    return min(times[0]) / min(times[1])


def run_harness(repeats: int) -> dict:
    """Time every scenario; return the BENCH_core.json payload."""
    calibration = _calibration_time()
    scenarios: dict[str, dict] = {}
    functions = {}
    for name, fn in _scenarios():
        functions[name] = fn
        fn()  # warm-up: first-touch caches, lazy imports
        times = []
        pair_updates = None
        for _ in range(repeats):
            started = time.perf_counter()
            pair_updates = fn()
            times.append(time.perf_counter() - started)
        scenarios[name] = {
            "mean_time": statistics.mean(times),
            "min_time": min(times),
            "repeats": repeats,
            "pair_updates": pair_updates,
        }
    speedup = (
        scenarios["ems_exact_20_reference"]["mean_time"]
        / scenarios["ems_exact_20"]["mean_time"]
    )
    speedup_composite = (
        scenarios["composite_search_cold"]["mean_time"]
        / scenarios["composite_search_incremental"]["mean_time"]
    )
    memory = _memory_profile()
    memory_reduction = DENSE_KERNEL_PEAK_BYTES / memory["peak_bytes"]
    # The disabled observer hooks must be free on the hot path: the
    # ratio should sit at ~1.0.
    overheads = {
        key: _paired_overhead(
            functions[numerator], functions[denominator], repeats
        )
        for key, numerator, denominator in PAIRED_OVERHEADS
    }
    # Warm search over stored evaluations vs the cold search: with every
    # candidate evaluation and discovery served from the match store,
    # only the accepted-merge rebuilds remain (>= 5x floor in compare()).
    warm_cache_speedup = (
        scenarios["composite_search_cold"]["mean_time"]
        / scenarios["composite_search_warm_cache"]["mean_time"]
    )
    # Streamed vs monolithic peak ingestion memory (<= 0.25x floor): the
    # whole point of the out-of-core pipeline is that peak memory tracks
    # one case-hash partition, not the log.
    ingest_memory = _ingest_memory_profile()
    ingest_streamed_memory = (
        ingest_memory["streamed"]["peak_bytes"]
        / ingest_memory["monolithic"]["peak_bytes"]
    )
    # Warm persistent log store vs cold parse+count (>= 5x floor): a hit
    # costs one content digest and one verified SQLite row.
    stats_store_warm = (
        scenarios["stats_ingest_cold"]["mean_time"]
        / scenarios["stats_ingest_store_warm"]["mean_time"]
    )
    # Warm match store vs the cold end-to-end pipeline match (>= 10x
    # floor): a full hit skips parse, graph build and the EMS fixpoint —
    # two content digests, one verified matrix row, and the assignment.
    match_store_warm = (
        scenarios["match_scaled_cold"]["mean_time"]
        / scenarios["match_store_warm"]["mean_time"]
    )
    # Warm daemon round trip vs the cold in-process pipeline match
    # (>= 2x floor): the daemon's per-job overhead — HTTP submit, queue
    # insert, scheduler claim, result fetch — must stay far below the
    # cost of recomputing the match from scratch.
    service_warm_speedup = (
        scenarios["match_scaled_cold"]["mean_time"]
        / scenarios["service_submit_to_result_warm"]["mean_time"]
    )
    return {
        "schema": 2,
        "scenario": SCENARIO,
        "composite_scenario": COMPOSITE_SCENARIO,
        "memory_scenario": MEMORY_SCENARIO,
        "ingest_scenario": INGEST_SCENARIO,
        "csv_read_scenario": CSV_READ_SCENARIO,
        "environment": environment_metadata(),
        "calibration_time": calibration,
        "scenarios": scenarios,
        "memory": memory,
        "ingest_memory": ingest_memory,
        "match_scenario": MATCH_STORE_SCENARIO,
        "ingest_streamed_memory": ingest_streamed_memory,
        "stats_store_warm": stats_store_warm,
        "match_store_warm": match_store_warm,
        "service_warm_speedup": service_warm_speedup,
        "speedup_exact_20": speedup,
        "speedup_composite": speedup_composite,
        "memory_reduction_sparse": memory_reduction,
        **overheads,
        "warm_cache_speedup": warm_cache_speedup,
    }


#: Acceptance floors enforced by :func:`compare`.  Each row is
#: ``(key, bound, sense, description)``: ``"min"`` keys must stay >=
#: *bound*, ``"max"`` keys must stay <= *bound*.  A floor key missing
#: from either JSON is itself a failure — a silent default would let a
#: renamed or dropped metric pass the gate unnoticed.
FLOORS = (
    ("speedup_exact_20", 3.0, "min",
     "kernel-vs-reference-loop exact-EMS speedup (20 events)"),
    ("speedup_composite", 3.0, "min",
     "incremental-vs-cold composite-search speedup"),
    ("memory_reduction_sparse", 4.0, "min",
     "peak-memory reduction vs the dense kernel (300 activities)"),
    ("noop_observer_overhead", 1.1, "max",
     "no-op-observer overhead on exact EMS (20 events)"),
    ("warm_cache_speedup", 5.0, "min",
     "warm-stored-evaluations-vs-cold composite-search speedup"),
    ("ingest_streamed_memory", 0.25, "max",
     "streamed-vs-monolithic ingestion peak-memory ratio"),
    ("stats_store_warm", 5.0, "min",
     "warm-log-store-vs-cold parse+count speedup"),
    ("match_store_warm", 10.0, "min",
     "warm-match-store-vs-cold end-to-end match speedup"),
    ("service_warm_speedup", 2.0, "min",
     "warm-daemon submit-to-result speedup over the cold in-process match"),
)


def environment_warnings(current: dict, baseline: dict) -> list[str]:
    """Human-readable notes on environment drift between two payloads.

    Differences here (interpreter, numpy, machine) are *warnings*, not
    failures: the calibration normalization in :func:`compare` absorbs
    raw speed differences, but a changed environment is worth surfacing
    when a timing comparison looks suspicious.
    """
    cur_env = current.get("environment") or {}
    base_env = baseline.get("environment") or {}
    if not base_env:
        return ["baseline payload has no environment metadata "
                "(predates schema addition; regenerate to silence this)"]
    warnings = []
    for key in sorted(set(cur_env) | set(base_env)):
        cur_value, base_value = cur_env.get(key), base_env.get(key)
        if cur_value != base_value:
            warnings.append(
                f"environment mismatch on {key!r}: current {cur_value!r} "
                f"vs baseline {base_value!r}"
            )
    return warnings


def compare(current: dict, baseline: dict, threshold: float) -> list[str]:
    """Regression check; returns human-readable failure messages.

    Every violation is collected — all failed floors and all regressed
    scenarios are reported together before the caller exits non-zero,
    never just the first one hit.  Times are compared after dividing by
    each run's calibration time, so a uniformly slower machine does not
    trip the check; *threshold* is the allowed normalized-slowdown
    factor.  ``pair_updates`` is deterministic, so any growth beyond 10%
    is flagged regardless of machine speed.  Every :data:`FLOORS` key
    must be present in both payloads and within its bound in the current
    one — a missing key fails loudly instead of defaulting to a vacuous
    pass.
    """
    failures: list[str] = []
    base_cal = baseline.get("calibration_time") or 1.0
    cur_cal = current.get("calibration_time") or 1.0
    for name, base in baseline.get("scenarios", {}).items():
        entry = current["scenarios"].get(name)
        if entry is None:
            failures.append(f"{name}: scenario disappeared from the harness")
            continue
        base_norm = base["mean_time"] / base_cal
        cur_norm = entry["mean_time"] / cur_cal
        if cur_norm > threshold * base_norm:
            failures.append(
                f"{name}: normalized mean time {cur_norm:.3f} vs baseline "
                f"{base_norm:.3f} ({cur_norm / base_norm:.2f}x, allowed "
                f"{threshold:g}x)"
            )
        if base.get("pair_updates") is not None and entry.get("pair_updates") is not None:
            if entry["pair_updates"] > 1.1 * base["pair_updates"]:
                failures.append(
                    f"{name}: pair_updates {entry['pair_updates']} vs baseline "
                    f"{base['pair_updates']} "
                    f"({entry['pair_updates'] / base['pair_updates']:.2f}x, "
                    "allowed 1.1x)"
                )
    for key, bound, sense, description in FLOORS:
        missing = [
            side for side, payload in (("current", current), ("baseline", baseline))
            if key not in payload
        ]
        if missing:
            failures.append(
                f"{key}: floor key missing from the {' and '.join(missing)} "
                "payload (regenerate BENCH_core.json with this harness)"
            )
            continue
        value = current[key]
        if sense == "min" and value < bound:
            failures.append(
                f"{description}: {value:.2f}x is below the {bound:g}x floor "
                f"by {bound - value:.2f}x"
            )
        elif sense == "max" and value > bound:
            failures.append(
                f"{description}: {value:.2f}x exceeds the {bound:g}x ceiling "
                f"by {value - bound:.2f}x"
            )
    return failures


def emit_observability(trace_out: str | None, manifest_out: str | None) -> None:
    """One fully-traced incremental composite search, exported to disk.

    Gives CI (and curious humans) a Chrome-trace timeline and a
    :class:`~repro.obs.RunManifest` for the same composite scenario the
    timing floors run against, without slowing the timed scenarios down.
    """
    observer = Observer(tracer=Tracer(), metrics=MetricsRegistry())
    config = EMSConfig()
    matcher = CompositeMatcher(
        config, delta=0.001, min_confidence=0.9, max_run_length=3,
        observer=observer,
    )
    logs = build_composite_pair(**COMPOSITE_SCENARIO)
    with observer.span("bench.composite", **COMPOSITE_SCENARIO):
        result = matcher.match(*logs)
    if trace_out:
        Path(trace_out).write_text(
            json.dumps(observer.tracer.to_chrome_trace(), indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {trace_out}")
    if manifest_out:
        manifest = RunManifest.from_observer(
            observer,
            config={"scenario": dict(COMPOSITE_SCENARIO)},
            stats={
                "rounds": result.stats.rounds,
                "candidates_evaluated": result.stats.candidates_evaluated,
                "pair_updates": result.stats.pair_updates,
                "accepted_second": [list(run) for run in result.accepted_second],
            },
        )
        manifest.write(manifest_out)
        print(f"wrote {manifest_out}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default=str(DEFAULT_OUTPUT), metavar="PATH",
        help="where to write the machine-readable results "
             f"(default: {DEFAULT_OUTPUT.name} at the repo root)",
    )
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repetitions per scenario (default 5)")
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="compare against a baseline BENCH_core.json; exit 1 on regression",
    )
    parser.add_argument(
        "--threshold", type=float, default=2.0,
        help="allowed normalized slowdown factor for --check (default 2.0)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="also run one traced composite search and write its "
             "Chrome-trace JSON to PATH (open in Perfetto)",
    )
    parser.add_argument(
        "--manifest-out", metavar="PATH", default=None,
        help="write the traced composite search's run manifest to PATH",
    )
    arguments = parser.parse_args(argv)
    if arguments.check and Path(arguments.output).resolve() == Path(arguments.check).resolve():
        # The fresh payload would overwrite the baseline before the check
        # read it, and a file compared with itself always passes.
        print(f"--output and --check both name {arguments.check}: pass --output "
              "a different path", file=sys.stderr)
        return 2

    payload = run_harness(arguments.repeats)
    Path(arguments.output).write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(f"scenario: {payload['scenario']}")
    for name, entry in payload["scenarios"].items():
        updates = entry["pair_updates"]
        suffix = f"  pair_updates={updates}" if updates is not None else ""
        print(f"  {name:38s} mean {entry['mean_time'] * 1e3:8.2f} ms{suffix}")
    print(f"kernel speedup over the reference loop on exact EMS (20 events): "
          f"{payload['speedup_exact_20']:.2f}x")
    print(f"incremental speedup on the composite search: "
          f"{payload['speedup_composite']:.2f}x")
    print(f"peak memory at {payload['memory_scenario']['activities']} "
          f"activities: {payload['memory']['peak_bytes'] / 2**20:.1f} MiB "
          f"({payload['memory_reduction_sparse']:.2f}x below the dense "
          f"kernel's {DENSE_KERNEL_PEAK_BYTES / 2**20:.1f} MiB)")
    print(f"no-op observer overhead (20 events): "
          f"{payload['noop_observer_overhead']:.2f}x")
    print(f"warm stored-evaluations speedup over the cold search: "
          f"{payload['warm_cache_speedup']:.2f}x")
    ingest_memory = payload["ingest_memory"]
    print(f"ingestion peak memory ({payload['ingest_scenario']['cases']} "
          f"cases): monolithic "
          f"{ingest_memory['monolithic']['peak_bytes'] / 2**20:.1f} MiB, "
          f"streamed {ingest_memory['streamed']['peak_bytes'] / 2**20:.1f} MiB "
          f"({payload['ingest_streamed_memory']:.2f}x of monolithic)")
    print(f"warm-log-store speedup over the cold parse+count: "
          f"{payload['stats_store_warm']:.2f}x")
    print(f"warm-match-store speedup over the cold end-to-end match: "
          f"{payload['match_store_warm']:.2f}x")
    print(f"warm-daemon speedup over the cold in-process match: "
          f"{payload['service_warm_speedup']:.2f}x")
    print(f"wrote {arguments.output}")

    if arguments.trace_out or arguments.manifest_out:
        emit_observability(arguments.trace_out, arguments.manifest_out)

    if arguments.check:
        baseline = json.loads(Path(arguments.check).read_text(encoding="utf-8"))
        for warning in environment_warnings(payload, baseline):
            print(f"WARNING: {warning}", file=sys.stderr)
        failures = compare(payload, baseline, arguments.threshold)
        if failures:
            print("\nREGRESSIONS against", arguments.check, file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 1
        print(f"no regressions against {arguments.check} "
              f"(threshold {arguments.threshold:g}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
