"""Per-figure experiment drivers.

One function per figure of the paper's evaluation (Section 5).  Each
returns a :class:`~repro.experiments.reporting.FigureResult` holding the
same rows/series the paper plots.  The default parameters are sized for
laptop-quick runs (the benchmark suite uses them); pass larger values —
e.g. via ``python -m repro.experiments --full`` — for closer replicas of
the paper's corpus sizes.

Absolute numbers differ from the paper (its corpus is proprietary and its
implementation Java); what these drivers reproduce is the *shape*: who
wins, by roughly what factor, and where the crossovers fall.
"""

from __future__ import annotations

import statistics
import time
from functools import lru_cache
from typing import Sequence

from repro.baselines.common import EventMatcher
from repro.core.config import EMSConfig
from repro.experiments.harness import (
    Aggregate,
    aggregate_runs,
    composite_matchers,
    default_label_similarity,
    mean_diagnostic,
    run_matcher_on_pair,
    run_matrix,
    singleton_matchers,
)
from repro.experiments.reporting import FigureResult
from repro.matchers import EMSCompositeMatcher, EMSMatcher
from repro.synthesis.corpus import (
    LogPair,
    build_dislocation_pair,
    build_real_like_corpus,
    build_scalability_pair,
    composite_pairs,
    singleton_testbeds,
)

DEFAULT_SEED = 2014
MATCHER_ORDER = ("EMS", "EMS+es", "GED", "OPQ", "BHV")
#: Timed sweeps per budget in Figure 5: one sweep of a few milliseconds
#: is too short to time alone.
FIG5_TIMED_SWEEPS = 5


@lru_cache(maxsize=2)
def _real_corpus(seed: int = DEFAULT_SEED, traces_per_log: int = 100) -> tuple[LogPair, ...]:
    return tuple(build_real_like_corpus(seed=seed, traces_per_log=traces_per_log))


def _testbed_subsets(pairs_per_testbed: int, seed: int) -> dict[str, list[LogPair]]:
    testbeds = singleton_testbeds(list(_real_corpus(seed)))
    return {name: pairs[:pairs_per_testbed] for name, pairs in testbeds.items()}


def _composite_subset(count: int, seed: int) -> list[LogPair]:
    return composite_pairs(list(_real_corpus(seed)))[:count]


# ----------------------------------------------------------------------
# Figures 3 and 4 — singleton matching accuracy and time
# ----------------------------------------------------------------------
def _singleton_figure(
    figure: str,
    title: str,
    with_labels: bool,
    pairs_per_testbed: int,
    seed: int,
) -> FigureResult:
    label = default_label_similarity() if with_labels else None
    matchers = singleton_matchers(label_similarity=label)
    headers = ["testbed"]
    headers += [f"f({name})" for name in MATCHER_ORDER]
    headers += [f"t({name})" for name in MATCHER_ORDER]
    rows: list[list[object]] = []
    for testbed, pairs in _testbed_subsets(pairs_per_testbed, seed).items():
        aggregates = aggregate_runs(run_matrix(matchers, pairs))
        row: list[object] = [testbed]
        row += [aggregates[name].mean_f_measure for name in MATCHER_ORDER]
        row += [aggregates[name].total_seconds for name in MATCHER_ORDER]
        rows.append(row)
    return FigureResult(
        figure=figure,
        title=title,
        headers=headers,
        rows=rows,
        notes=[f"{pairs_per_testbed} log pairs per testbed, seed {seed}"],
    )


def fig3(pairs_per_testbed: int = 8, seed: int = DEFAULT_SEED) -> FigureResult:
    """Singleton matching, structural similarity only (opaque names)."""
    return _singleton_figure(
        "Figure 3",
        "Performance on matching singleton events (structural only)",
        False,
        pairs_per_testbed,
        seed,
    )


def fig4(pairs_per_testbed: int = 8, seed: int = DEFAULT_SEED) -> FigureResult:
    """Singleton matching with q-gram cosine label similarity blended in."""
    return _singleton_figure(
        "Figure 4",
        "Integrating with typographic similarity",
        True,
        pairs_per_testbed,
        seed,
    )


# ----------------------------------------------------------------------
# Figure 5 — estimation trade-off (iteration budget I)
# ----------------------------------------------------------------------
def fig5(
    budgets: Sequence[int | None] = (0, 1, 2, 3, 5, 10, None),
    pair_count: int = 8,
    seed: int = DEFAULT_SEED,
) -> FigureResult:
    """f-measure and time of EMS+es as the exact-iteration budget grows.

    ``None`` is the paper's MAX: the precise measure without estimation.
    """
    pairs = _testbed_subsets(pair_count, seed)["DS-FB"]
    matchers = [
        (budget, EMSMatcher(
            EMSConfig(estimation_iterations=budget),
            name=f"I={budget if budget is not None else 'MAX'}",
        ))
        for budget in budgets
    ]
    # One untimed sweep of every budget first: the first matches of a
    # process pay one-off costs that would otherwise all land on the
    # budget timed first.
    for _, matcher in matchers:
        for pair in pairs:
            run_matcher_on_pair(matcher, pair)
    # Then FIG5_TIMED_SWEEPS timed sweeps, budgets interleaved within each
    # sweep so that a slow spell of the machine lands on every budget; a
    # budget's time is the median of its sweep totals.
    sweeps: list[list[Aggregate]] = [[] for _ in matchers]
    for _ in range(FIG5_TIMED_SWEEPS):
        for totals, (_, matcher) in zip(sweeps, matchers):
            runs = [run_matcher_on_pair(matcher, pair) for pair in pairs]
            totals.append(aggregate_runs(runs)[matcher.name])
    rows: list[list[object]] = []
    for (budget, _), totals in zip(matchers, sweeps):
        rows.append(
            [
                "MAX" if budget is None else budget,
                totals[0].mean_f_measure,
                statistics.median(total.total_seconds for total in totals),
            ]
        )
    return FigureResult(
        figure="Figure 5",
        title="Trade-off between accuracy and time by estimation",
        headers=["I", "f-measure", "seconds"],
        rows=rows,
        notes=[
            f"{len(pairs)} DS-FB pairs, seed {seed}; seconds are the median "
            f"of {FIG5_TIMED_SWEEPS} timed sweeps"
        ],
    )


# ----------------------------------------------------------------------
# Figure 6 — prune power of early convergence
# ----------------------------------------------------------------------
def fig6(pair_count: int = 8, seed: int = DEFAULT_SEED) -> FigureResult:
    """Formula-(1) evaluations and time with vs without Proposition 2."""
    subsets = _testbed_subsets(pair_count, seed)
    pruned = EMSMatcher(EMSConfig(use_pruning=True), name="EMS+prune")
    unpruned = EMSMatcher(EMSConfig(use_pruning=False), name="EMS")
    rows: list[list[object]] = []
    for testbed, pairs in subsets.items():
        runs_pruned = [run_matcher_on_pair(pruned, pair) for pair in pairs]
        runs_unpruned = [run_matcher_on_pair(unpruned, pair) for pair in pairs]
        rows.append(
            [
                testbed,
                mean_diagnostic(runs_unpruned, "pair_updates"),
                mean_diagnostic(runs_pruned, "pair_updates"),
                sum(run.seconds for run in runs_unpruned),
                sum(run.seconds for run in runs_pruned),
            ]
        )
    return FigureResult(
        figure="Figure 6",
        title="Prune power of early convergence",
        headers=[
            "testbed",
            "updates(no prune)",
            "updates(prune)",
            "t(no prune)",
            "t(prune)",
        ],
        rows=rows,
        notes=[f"{pair_count} pairs per testbed; updates = formula (1) evaluations"],
    )


# ----------------------------------------------------------------------
# Figure 7 — minimum frequency control
# ----------------------------------------------------------------------
def fig7(
    thresholds: Sequence[float] = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25),
    pair_count: int = 6,
    seed: int = DEFAULT_SEED,
) -> FigureResult:
    """Accuracy/time as low-frequency edges are filtered out."""
    pairs = _testbed_subsets(pair_count, seed)["DS-FB"]
    rows: list[list[object]] = []
    for threshold in thresholds:
        matcher = EMSMatcher(min_edge_frequency=threshold, name=f"minf={threshold}")
        runs = [run_matcher_on_pair(matcher, pair) for pair in pairs]
        aggregates = aggregate_runs(runs)[matcher.name]
        rows.append([threshold, aggregates.mean_f_measure, aggregates.total_seconds])
    return FigureResult(
        figure="Figure 7",
        title="Performance on varying minimum frequency thresholds",
        headers=["min frequency", "f-measure", "seconds"],
        rows=rows,
        notes=[f"{len(pairs)} DS-FB pairs, seed {seed}"],
    )


# ----------------------------------------------------------------------
# Figure 8 — scalability over the number of events
# ----------------------------------------------------------------------
def fig8(
    sizes: Sequence[int] = (10, 20, 30, 40, 50),
    per_size: int = 2,
    seed: int = DEFAULT_SEED,
    traces_per_log: int = 80,
    opq_max_events: int = 30,
) -> FigureResult:
    """Accuracy and time vs number of events; OPQ DNFs past its cap."""
    matchers = singleton_matchers(opq_max_events=opq_max_events)
    headers = ["events"]
    headers += [f"f({name})" for name in MATCHER_ORDER]
    headers += [f"t({name})" for name in MATCHER_ORDER]
    rows: list[list[object]] = []
    for size in sizes:
        pairs = [
            build_scalability_pair(
                size, seed=seed * 1_000 + size * 10 + index,
                traces_per_log=traces_per_log,
            )
            for index in range(per_size)
        ]
        aggregates = aggregate_runs(run_matrix(matchers, pairs))
        row: list[object] = [size]
        for name in MATCHER_ORDER:
            aggregate = aggregates[name]
            row.append("DNF" if aggregate.dnf_count == aggregate.pair_count
                       else aggregate.mean_f_measure)
        for name in MATCHER_ORDER:
            aggregate = aggregates[name]
            row.append("DNF" if aggregate.dnf_count == aggregate.pair_count
                       else aggregate.total_seconds)
        rows.append(row)
    return FigureResult(
        figure="Figure 8",
        title="Scalability on the number of events (synthetic data)",
        headers=headers,
        rows=rows,
        notes=[
            f"{per_size} model(s) per size, {traces_per_log} traces per log",
            f"OPQ cap: {opq_max_events} events (O(n!) search; DNF beyond, as in the paper)",
        ],
    )


# ----------------------------------------------------------------------
# Figure 9 — handling dislocated events
# ----------------------------------------------------------------------
def fig9(
    removed: Sequence[int] = (0, 1, 2, 3, 4, 5),
    size: int = 20,
    per_setting: int = 4,
    seed: int = DEFAULT_SEED,
    traces_per_log: int = 80,
) -> FigureResult:
    """Accuracy vs the number of dislocated (removed prefix) events."""
    matchers = singleton_matchers()
    headers = ["removed"] + [f"f({name})" for name in MATCHER_ORDER]
    rows: list[list[object]] = []
    for m in removed:
        pairs = [
            build_dislocation_pair(
                size, removed=m, seed=seed * 100 + index, traces_per_log=traces_per_log
            )
            for index in range(per_setting)
        ]
        aggregates = aggregate_runs(run_matrix(matchers, pairs))
        row: list[object] = [m]
        for name in MATCHER_ORDER:
            aggregate = aggregates[name]
            row.append("DNF" if aggregate.dnf_count == aggregate.pair_count
                       else aggregate.mean_f_measure)
        rows.append(row)
    return FigureResult(
        figure="Figure 9",
        title="Performance on handling dislocated events",
        headers=headers,
        rows=rows,
        notes=[f"{size}-event models, {per_setting} pair(s) per setting"],
    )


# ----------------------------------------------------------------------
# Figures 10 and 11 — composite event matching
# ----------------------------------------------------------------------
def _composite_figure(
    figure: str, title: str, with_labels: bool, pair_count: int, seed: int
) -> FigureResult:
    label = default_label_similarity() if with_labels else None
    matchers = composite_matchers(label_similarity=label)
    pairs = _composite_subset(pair_count, seed)
    aggregates = aggregate_runs(run_matrix(matchers, pairs))
    rows: list[list[object]] = []
    for name in MATCHER_ORDER:
        aggregate = aggregates[name]
        rows.append(
            [
                name,
                "DNF" if aggregate.dnf_count == aggregate.pair_count
                else aggregate.mean_f_measure,
                aggregate.total_seconds,
            ]
        )
    return FigureResult(
        figure=figure,
        title=title,
        headers=["matcher", "f-measure", "seconds"],
        rows=rows,
        notes=[f"{len(pairs)} composite log pairs, seed {seed}"],
    )


def fig10(pair_count: int = 6, seed: int = DEFAULT_SEED) -> FigureResult:
    """Composite matching, structural similarity only."""
    return _composite_figure(
        "Figure 10",
        "Performance on matching composite events (structural only)",
        False,
        pair_count,
        seed,
    )


def fig11(pair_count: int = 6, seed: int = DEFAULT_SEED) -> FigureResult:
    """Composite matching with typographic similarity."""
    return _composite_figure(
        "Figure 11",
        "Matching composite events, integrating typographic similarity",
        True,
        pair_count,
        seed,
    )


# ----------------------------------------------------------------------
# Figure 12 — prune power of Uc and Bd
# ----------------------------------------------------------------------
def fig12(pair_count: int = 4, seed: int = DEFAULT_SEED) -> FigureResult:
    """Unchanged-similarity reuse (Uc) and upper-bound abort (Bd)."""
    pairs = _composite_subset(pair_count, seed)
    variants: list[tuple[str, bool, bool]] = [
        ("none", False, False),
        ("Uc", True, False),
        ("Bd", False, True),
        ("Uc+Bd", True, True),
    ]
    rows: list[list[object]] = []
    for label, use_unchanged, use_bounds in variants:
        matcher = EMSCompositeMatcher(
            use_unchanged=use_unchanged,
            use_bounds=use_bounds,
            min_confidence=0.9,
            max_run_length=3,
            name=f"EMS[{label}]",
        )
        runs = [run_matcher_on_pair(matcher, pair) for pair in pairs]
        rows.append(
            [
                label,
                mean_diagnostic(runs, "pair_updates"),
                sum(run.seconds for run in runs),
                aggregate_runs(runs)[matcher.name].mean_f_measure,
            ]
        )
    return FigureResult(
        figure="Figure 12",
        title="Prune power of unchanged similarities and upper bounds",
        headers=["pruning", "updates", "seconds", "f-measure"],
        rows=rows,
        notes=[f"{len(pairs)} composite pairs; updates = formula (1) evaluations"],
    )


# ----------------------------------------------------------------------
# Figure 13 — varying the improvement threshold delta
# ----------------------------------------------------------------------
def fig13(
    deltas: Sequence[float] = (0.20, 0.05, 0.01, 0.005, 0.002, 0.001, 0.0005),
    pair_count: int = 4,
    seed: int = DEFAULT_SEED,
) -> FigureResult:
    """Accuracy peaks at a moderate delta; time grows as delta shrinks."""
    pairs = _composite_subset(pair_count, seed)
    rows: list[list[object]] = []
    for delta in deltas:
        matcher = EMSCompositeMatcher(
            delta=delta, min_confidence=0.9, max_run_length=3, name=f"d={delta}"
        )
        runs = [run_matcher_on_pair(matcher, pair) for pair in pairs]
        aggregates = aggregate_runs(runs)[matcher.name]
        rows.append(
            [
                delta,
                aggregates.mean_f_measure,
                aggregates.total_seconds,
                mean_diagnostic(runs, "composites_accepted"),
            ]
        )
    return FigureResult(
        figure="Figure 13",
        title="Performance on varying threshold delta",
        headers=["delta", "f-measure", "seconds", "composites accepted"],
        rows=rows,
        notes=[f"{len(pairs)} composite pairs, seed {seed}"],
    )


# ----------------------------------------------------------------------
# Figure 14 — varying the candidate-set size
# ----------------------------------------------------------------------
def fig14(
    candidate_caps: Sequence[int] = (0, 1, 2, 4, 8, 16),
    pair_count: int = 4,
    seed: int = DEFAULT_SEED,
) -> FigureResult:
    """More candidates find more composites but cost more time."""
    pairs = _composite_subset(pair_count, seed)
    rows: list[list[object]] = []
    for cap in candidate_caps:
        matcher = EMSCompositeMatcher(
            max_candidates=cap,
            delta=0.002,
            min_confidence=0.75,
            max_run_length=3,
            name=f"cap={cap}",
        )
        runs = [run_matcher_on_pair(matcher, pair) for pair in pairs]
        aggregates = aggregate_runs(runs)[matcher.name]
        rows.append(
            [
                cap,
                aggregates.mean_f_measure,
                aggregates.total_seconds,
                mean_diagnostic(runs, "candidates_evaluated"),
            ]
        )
    return FigureResult(
        figure="Figure 14",
        title="Performance on varying candidate sizes",
        headers=["candidate cap", "f-measure", "seconds", "candidates evaluated"],
        rows=rows,
        notes=[f"{len(pairs)} composite pairs, seed {seed}"],
    )


#: Registry used by the CLI and the benchmark suite.
ALL_FIGURES = {
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
}
