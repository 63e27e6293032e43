"""The in-process closed-loop workloads: ``match_wide`` and ``composite_testbed``.

One caller matches one CSV pair at a time, the way ``repro match A B``
(or ``repro match --composite A B``) does: ``repro.cli.load_log`` twice,
then a fresh matcher's ``match``.  Every pair is matched once; the loop
then starts over in a new seeded order until ``--seconds`` have passed.

Figures weight every pair equally, whatever the deadline cuts: a pair's
cost is the median of its repeats, ``pairs_per_s`` is the pair count over
the summed per-pair cost (the rate of one full pass) and the latency
percentiles are taken over the per-pair costs.  Pair costs differ
several-fold, so counting whichever pairs happened to fit before the
deadline would make the figures depend on where the deadline fell; the
median of the repeats keeps a passing stall of the machine out.
"""

from __future__ import annotations

import math
import random
import shutil
import time
from dataclasses import dataclass
from typing import Callable

from repro.cli import load_log
from repro.matchers import EMSCompositeMatcher, EMSMatcher
from repro.matching.evaluation import evaluate
from repro.obs import MetricsRegistry, Observer, Tracer

from inputs import PairFiles, write_composite_pairs, write_fig8_pairs
from measure import (
    PER_LAYER,
    RunResult,
    SpeedProbe,
    Tally,
    counter_values,
    layer_self_times,
    median,
    peak_rss_mb,
    quantile,
    ratio,
    reset_peak_rss,
    spans_named,
)


@dataclass
class PairRun:
    job_s: float
    match_s: float
    events: int
    outcome: object
    problem: str | None


def check_outcome(outcome, first, second, one_to_one: bool) -> str | None:
    """Why *outcome* is not a valid assignment over the two logs, if it is not.

    Every correspondence must use activities of its own log, no activity
    may appear in two correspondences, 1:1 matching must pair singletons,
    and the objective (an average of similarities in [0, 1]) must lie in
    [0, 1].
    """
    left_all, right_all = first.activities(), second.activities()
    left_seen: set[str] = set()
    right_seen: set[str] = set()
    for correspondence in outcome.correspondences:
        left, right = correspondence.left, correspondence.right
        if one_to_one and (len(left) != 1 or len(right) != 1):
            return f"non-singleton correspondence {correspondence!r}"
        if not left <= left_all or not right <= right_all:
            return f"correspondence {correspondence!r} uses unknown activities"
        if left & left_seen or right & right_seen:
            return f"activity matched twice in {correspondence!r}"
        left_seen |= left
        right_seen |= right
    objective = outcome.objective
    if not (math.isfinite(objective) and 0.0 <= objective <= 1.0):
        return f"objective {objective!r} outside [0, 1]"
    return None


def outcome_signature(outcome) -> tuple:
    """Objective (bitwise) and correspondences: equal iff the answers agree."""
    return outcome.objective, frozenset(
        (tuple(sorted(c.left)), tuple(sorted(c.right)))
        for c in outcome.correspondences
    )


def run_pair(pair: PairFiles, make_matcher: Callable, one_to_one: bool,
             observer: Observer | None = None) -> PairRun:
    """Load and match one pair; with a tracing *observer*, inside ``bench.*``
    spans (``bench.pair`` > ``bench.load`` x2 + ``bench.match``)."""
    tracer = observer.tracer if observer is not None else None
    started = time.perf_counter()
    if tracer is not None:
        root = tracer.start("bench.pair", pair=pair.name)
        with tracer.span("bench.load"):
            first = load_log(str(pair.first))
        with tracer.span("bench.load"):
            second = load_log(str(pair.second))
    else:
        first = load_log(str(pair.first))
        second = load_log(str(pair.second))
    loaded = time.perf_counter()
    if tracer is not None:
        with tracer.span("bench.match"):
            outcome = make_matcher(observer).match(first, second)
        tracer.finish(root)
    else:
        outcome = make_matcher(observer).match(first, second)
    finished = time.perf_counter()
    return PairRun(
        job_s=finished - started,
        match_s=finished - loaded,
        events=sum(len(trace) for log in (first, second) for trace in log),
        outcome=outcome,
        problem=check_outcome(outcome, first, second, one_to_one),
    )


def _matcher_factory(workload: str) -> tuple[Callable, bool]:
    if workload == "match_wide":
        return (lambda observer: EMSMatcher(observer=observer)), True
    return (lambda observer: EMSCompositeMatcher(observer=observer)), False


class _Verifier:
    """Checks every outcome and pins repeats of a pair to its first answer."""

    def __init__(self, pairs: list[PairFiles], tally: Tally):
        self.pairs = pairs
        self.tally = tally
        self.first_answer: dict[int, tuple] = {}
        self.f_measure: dict[int, float] = {}

    def check(self, index: int, run: PairRun) -> None:
        self.tally.attempt()
        pair = self.pairs[index]
        if run.problem is not None:
            self.tally.fail(f"{pair.name}: {run.problem}")
            return
        signature = outcome_signature(run.outcome)
        if index not in self.first_answer:
            self.first_answer[index] = signature
            self.f_measure[index] = evaluate(
                pair.truth, run.outcome.correspondences
            ).f_measure
        elif signature != self.first_answer[index]:
            self.tally.fail(f"{pair.name}: answer differs between repeats")


def _attempt(pair: PairFiles, make_matcher, one_to_one, observer=None) -> PairRun:
    try:
        return run_pair(pair, make_matcher, one_to_one, observer)
    except Exception as error:  # noqa: BLE001 - a failed operation is counted
        return PairRun(0.0, 0.0, 0, None, f"{type(error).__name__}: {error}")


def measure(workload: str, pairs: list[PairFiles], seconds: float, seed: int,
            tally: Tally, probe: SpeedProbe) -> dict[str, float]:
    """The timed closed loop; returns the end-to-end metrics (less set-up).

    Every pair's times are scaled to the reference speed by the probe
    samples taken around it (two before, two after).
    """
    make_matcher, one_to_one = _matcher_factory(workload)
    verifier = _Verifier(pairs, tally)
    timings: list[tuple[int, float, float, int]] = []
    rng = random.Random(seed)
    reset_peak_rss()
    probe.sample()
    started = time.perf_counter()
    first_pass = True
    while first_pass or time.perf_counter() - started < seconds:
        order = list(range(len(pairs)))
        rng.shuffle(order)
        for index in order:
            if not first_pass and time.perf_counter() - started >= seconds:
                break
            run = _attempt(pairs[index], make_matcher, one_to_one)
            probe.sample()
            verifier.check(index, run)
            if run.problem is None:
                timings.append((index, run.job_s, run.match_s, len(probe.samples)))
        first_pass = False
    peak = peak_rss_mb()
    job_s: dict[int, list[float]] = {}
    match_s: dict[int, list[float]] = {}
    for index, job, match, after in timings:
        scale = probe.scale(after - 3, after + 2)
        job_s.setdefault(index, []).append(job * scale)
        match_s.setdefault(index, []).append(match * scale)
    if not job_s:
        raise RuntimeError("no pair was matched successfully")
    per_pair_job = [median(values) for values in job_s.values()]
    per_pair_match = [median(values) for values in match_s.values()]
    throughput = len(per_pair_job) / sum(per_pair_job)
    return {
        "pairs_per_s": throughput,
        "capacity_jobs_per_s": throughput,
        "match_p50_s": quantile(per_pair_match, 0.5),
        "job_p50_s": quantile(per_pair_job, 0.5),
        "job_p95_s": quantile(per_pair_job, 0.95),
        "f_measure": sum(verifier.f_measure.values()) / len(verifier.f_measure),
        "peak_rss_mb": peak,
    }


def measure_traced(workload: str, pairs: list[PairFiles], tally: Tally,
                   probe: SpeedProbe) -> dict[str, float]:
    """One pass, each pair matched untraced then traced; per-layer metrics.

    Layer seconds are scaled to the reference speed by the pass's median
    probe sample.
    """
    make_matcher, one_to_one = _matcher_factory(workload)
    verifier = _Verifier(pairs, tally)
    observer = Observer(Tracer(), MetricsRegistry())
    probe.sample()
    untraced_s = traced_s = 0.0
    events = 0
    outcomes = []
    for index, pair in enumerate(pairs):
        plain = _attempt(pair, make_matcher, one_to_one)
        traced = _attempt(pair, make_matcher, one_to_one, observer)
        probe.sample()
        verifier.check(index, plain)
        verifier.check(index, traced)
        untraced_s += plain.job_s
        traced_s += traced.job_s
        events += traced.events
        if traced.problem is None:
            outcomes.append(traced.outcome)
    roots = observer.tracer.roots
    count = len(pairs)
    scale = probe.scale(0, len(probe.samples))
    layers = {
        name: seconds * scale for name, seconds in layer_self_times(roots).items()
    }
    load_s = layers["logs.parse"]
    iterations = spans_named(roots, "ems.iteration")
    diagnostics = _summed_diagnostics(outcomes)
    counters = counter_values(observer.metrics)
    attributed = sum(layers.values())
    metrics = {
        "logs.parse_s": load_s / count,
        "logs.events_per_s": ratio(events, load_s),  # load_s is scaled
        "graph.build_s": layers["graph.build"] / count,
        "core.fixpoint_s": layers["core.fixpoint"] / count,
        "core.pair_updates": sum(
            span.attributes.get("pair_updates", 0) for span in iterations
        ) / count,
        "core.iterations": len(iterations) / count,
        "composite.round_s": layers["composite.round"] / count,
        "composite.candidate_s": layers["composite.candidate"] / count,
        "composite.rounds": diagnostics["rounds"] / count,
        "composite.candidates_evaluated": diagnostics["candidates_evaluated"] / count,
        "composite.merges_accepted": diagnostics["composites_accepted"] / count,
        "composite.abort_ratio": ratio(
            diagnostics["evaluations_aborted"], diagnostics["candidates_evaluated"]
        ),
        "composite.screened_ratio": ratio(
            diagnostics["candidates_screened"], diagnostics["screen_checks"]
        ),
        "similarity.label_cache_hit_ratio": ratio(
            counters.get("label_cache_hits_total", 0.0),
            counters.get("label_cache_hits_total", 0.0)
            + counters.get("label_cache_misses_total", 0.0),
        ),
        "matching.assign_s": layers["matching.assign"] / count,
        "bench.trace_overhead": ratio(traced_s, untraced_s),
        "bench.unattributed_share": 1.0 - ratio(attributed, traced_s * scale),
        "bench.gen_lag_p95_s": 0.0,
    }
    return metrics


def _summed_diagnostics(outcomes) -> dict[str, float]:
    keys = ("rounds", "candidates_evaluated", "composites_accepted",
            "evaluations_aborted", "candidates_screened", "screen_checks")
    totals = dict.fromkeys(keys, 0.0)
    for outcome in outcomes:
        for key in keys:
            totals[key] += outcome.diagnostics.get(key, 0.0)
    return totals


#: Input sizes per workload: full runs, and ``--tiny`` for the tests.
#: match_wide: 5 Figure-8 trees per size 60..100 (25 pairs, one pass is
#: about 13 s here); composite_testbed: the 46-pair COMPOSITE testbed three
#: times (138 pairs, about 18 s).  One pass is the unit every figure
#: weights; a 45 s run repeats each pair two to four times.
def make_inputs(workload: str, directory, seed: int, tiny: bool):
    if workload == "match_wide":
        if tiny:
            return write_fig8_pairs(directory, seed, 1, traces_per_log=20,
                                    sizes=(60,))
        return write_fig8_pairs(directory, seed, 5)
    if tiny:
        return write_composite_pairs(directory, seed, 1, pairs=3)
    return write_composite_pairs(directory, seed, 3)


#: Sanity floors on the macro f-measure: far below what the matchers reach
#: (see README.md), so only a broken matcher trips them.
F_MEASURE_FLOOR = {"match_wide": 0.3, "composite_testbed": 0.25}


def run(arguments, workdir, setup_repeats: int) -> RunResult:
    workload = arguments.workload
    tally = Tally()
    probe = SpeedProbe()
    setup_s = []
    repeats = 1 if arguments.trace else setup_repeats
    for repeat in range(repeats):
        directory = workdir / f"inputs-{repeat}"
        probe.sample()
        probe.sample()
        started = time.perf_counter()
        pairs = make_inputs(workload, directory, arguments.seed, arguments.tiny)
        elapsed = time.perf_counter() - started
        probe.sample()
        probe.sample()
        setup_s.append(elapsed * probe.scale(len(probe.samples) - 4, len(probe.samples)))
        if repeat + 1 < repeats:
            shutil.rmtree(directory)
    result = RunResult(tally)
    if arguments.trace:
        metrics = measure_traced(workload, pairs, tally, probe)
        result.notes.extend(layer_notes(workload, metrics))
        # The in-process loops use no store and no daemon.
        metrics.update({name: 0.0 for name in PER_LAYER if name not in metrics})
    else:
        metrics = measure(workload, pairs, arguments.seconds, arguments.seed, tally,
                          probe)
        metrics["setup_s"] = median(setup_s)
        floor = F_MEASURE_FLOOR[workload]
        if not arguments.tiny and metrics["f_measure"] < floor:
            result.problems.append(
                f"f_measure {metrics['f_measure']:.4f} below the floor {floor}"
            )
    result.metrics = metrics
    result.notes.append(
        "times are scaled to the reference speed; median scale "
        f"{probe.scale(0, len(probe.samples)):.3f} over {len(probe.samples)} probes"
    )
    return result


def layer_notes(workload: str, metrics: dict[str, float]) -> list[str]:
    """Notes when a workload stops loading the layer it was chosen for."""
    notes = []
    layers = ("logs.parse_s", "graph.build_s", "core.fixpoint_s",
              "composite.round_s", "composite.candidate_s", "matching.assign_s")
    if workload == "match_wide" and max(layers, key=metrics.get) != "core.fixpoint_s":
        notes.append("core.fixpoint_s is not the largest layer on match_wide")
    composite = metrics["composite.round_s"] + metrics["composite.candidate_s"]
    if workload != "composite_testbed" and composite > 0:
        notes.append(f"composite layers show up on {workload}")
    if workload == "composite_testbed" and composite == 0:
        notes.append("composite layers are missing on composite_testbed")
    return notes
