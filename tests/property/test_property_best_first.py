"""Property suite: best-first candidate scheduling vs static order.

Best-first ordering plus the global bound cutoff is a pure scheduling
change: on any input, with screening on or off, it must select the same
merges round for round and land on the same final scores as the static
discovery-order scan — the estimation bound is sound (a cut candidate
provably cannot beat the incumbent) and equal-average ties resolve to
the lowest discovery position, exactly the candidate the static
strict-improvement scan keeps.
"""

import random as random_module

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.composite import CompositeMatcher
from repro.core.config import EMSConfig
from repro.core.ems import EMSEngine, LabelMatrixCache
from repro.core.incremental import IncrementalSearchState
from repro.graph.dependency import DependencyGraph
from repro.logs.log import EventLog
from repro.obs import MetricsRegistry, Observer, Tracer
from tests.composite_oracle import ColdCompositeMatcher, PluggedMatcher, scheduled_state

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def random_log(seed: int, alphabet: str = "abcdef") -> EventLog:
    rng = random_module.Random(seed)
    traces = []
    for _ in range(rng.randint(2, 8)):
        length = rng.randint(1, 6)
        traces.append([rng.choice(alphabet) for _ in range(length)])
    return EventLog(traces, name=f"rand-{seed}")


def matcher(best_first: bool, screening: bool, **kwargs) -> CompositeMatcher:
    defaults = dict(delta=0.0, min_confidence=0.8, max_run_length=3)
    defaults.update(kwargs)
    result = PluggedMatcher(EMSConfig(), **defaults)
    result.state_class = scheduled_state(best_first=best_first, screening=screening)
    return result


def assert_same_selection(static, best):
    assert static.accepted_first == best.accepted_first
    assert static.accepted_second == best.accepted_second
    assert static.matrix.rows == best.matrix.rows
    assert static.matrix.cols == best.matrix.cols
    assert np.array_equal(static.matrix.values, best.matrix.values)
    assert static.members_first == best.members_first
    assert static.members_second == best.members_second
    assert static.stats.rounds == best.stats.rounds


@given(seeds, seeds, st.booleans())
@settings(max_examples=25, deadline=None)
# Near-ties the Bd abort once broke by evaluation order: an exact tie
# (568) and averages one ulp apart (the second pair).
@example(568, 568, False)
@example(1442023555, 1704182386, False)
def test_best_first_matches_static_order(seed_first, seed_second, screening):
    log_first = random_log(seed_first)
    log_second = random_log(seed_second)
    static = matcher(best_first=False, screening=screening).match(
        log_first, log_second
    )
    best = matcher(best_first=True, screening=screening).match(
        log_first, log_second
    )
    assert_same_selection(static, best)
    # Best-first may skip evaluations, never add any.
    assert best.stats.candidates_evaluated <= static.stats.candidates_evaluated


@given(seeds, seeds)
@settings(max_examples=15, deadline=None)
def test_best_first_matches_cold_rebuild_search(seed_first, seed_second):
    # Transitivity check straight against the ground truth: the cold
    # full-rebuild search with no scheduling at all.
    log_first = random_log(seed_first)
    log_second = random_log(seed_second, alphabet="uvwxyz")
    cold = ColdCompositeMatcher(
        EMSConfig(),
        delta=0.0, min_confidence=0.8, max_run_length=3,
    ).match(log_first, log_second)
    best = matcher(best_first=True, screening=True).match(log_first, log_second)
    assert_same_selection(cold, best)


@given(seeds, seeds, st.sampled_from([0.0, 0.005, 0.05]))
@settings(max_examples=15, deadline=None)
def test_delta_thresholds_preserved(seed_first, seed_second, delta):
    log_first = random_log(seed_first)
    log_second = random_log(seed_second)
    static = matcher(best_first=False, screening=True, delta=delta).match(
        log_first, log_second
    )
    best = matcher(best_first=True, screening=True, delta=delta).match(
        log_first, log_second
    )
    assert_same_selection(static, best)


# ----------------------------------------------------------------------
# Deterministic span-count demonstration (the acceptance criterion).
# ----------------------------------------------------------------------
def _structured_pair() -> tuple[EventLog, EventLog]:
    """A log pair with one frequent and one rare planted chain."""
    rng = random_module.Random(5)
    first, second = [], []
    for _ in range(200):
        trace = ["s"]
        for step in range(3):
            trace.append(f"a{step}" if rng.random() < 0.7 else f"b{step}")
        trace.append("e")
        first.append(trace)
        merged = list(trace)
        if rng.random() < 0.5:
            merged[2:2] = ["x0", "x1"]
        if rng.random() < 0.04:
            merged[1:1] = ["y0", "y1"]
        second.append(merged)
    return EventLog(first, name="plain"), EventLog(second, name="chained")


def _count_spans(spans, name):
    return sum(
        (span.name == name) + _count_spans(span.children, name)
        for span in spans
    )


def test_cutoff_reduces_evaluate_spans_with_identical_selection():
    """Pick delta between the two candidates' bounds: the static scan
    still walks (and span-wraps) the screened candidate, the best-first
    cutoff never touches it — fewer ``candidate.evaluate`` spans, same
    selected correspondences.  The delta is calibrated from the bounds
    themselves so the test cannot rot as the bound tightens."""
    log_first, log_second = _structured_pair()
    config = EMSConfig()
    graph_first = DependencyGraph.from_log(log_first)
    graph_second = DependencyGraph.from_log(log_second)
    current = EMSEngine(config).similarity(graph_first, graph_second)
    probe = CompositeMatcher(config, min_confidence=0.9, max_run_length=3)
    state = IncrementalSearchState(
        config, probe.base_label, 0.0, True, True, LabelMatrixCache(8)
    )
    state.reset((
        (log_first, {a: frozenset({a}) for a in log_first.activities()},
         graph_first),
        (log_second, {a: frozenset({a}) for a in log_second.activities()},
         graph_second),
    ))
    from repro.core.composite import discover_candidates

    runs = discover_candidates(log_second, min_confidence=0.9, max_run_length=3)
    bounds = sorted(state.candidate_bound(1, run) for run in runs)
    assert len(bounds) >= 2 and bounds[0] < bounds[-1]
    # target = current_average + delta lands strictly between the bounds:
    # the weak candidate is provably hopeless, the strong one is not.
    delta = (bounds[0] + bounds[-1]) / 2 - current.matrix.average()

    results = {}
    for best_first in (False, True):
        observer = Observer(tracer=Tracer(), metrics=MetricsRegistry())
        result = matcher(
            best_first=best_first, screening=True,
            delta=delta, min_confidence=0.9, max_run_length=3,
            observer=observer,
        ).match(log_first, log_second)
        spans = _count_spans(observer.tracer.roots, "candidate.evaluate")
        results[best_first] = (result, spans)

    static, static_spans = results[False]
    best, best_spans = results[True]
    assert_same_selection(static, best)
    assert best_spans < static_spans
    assert best.stats.candidates_screened >= 1
