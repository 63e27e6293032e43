"""Seeded input generation for the benchmark workloads.

Every input is a pair of CSV event logs plus its ground truth, generated
from the run's ``--seed`` by the repository's own synthesis code; the
program under test only ever sees the CSV files.

Why the Figure-8 pairs split their randomness
---------------------------------------------
``build_scalability_pair`` draws the process tree and the play-outs from
one seed.  Measured here, the cost of a cold match at 100 activities
varies about 0.9x (coefficient of variation) from tree to tree but only
about 0.1x between play-outs of one tree, and a run fits only a few dozen
pairs.  So ``match_wide`` takes its process trees from the paper's fixed
Figure-8 corpus (``build_scalability_pairs(seed=2014)``, exactly the trees
``build_scalability_pair`` draws for those pair seeds) and draws
everything else from the run seed: traces, branch weights of the second
log, and the task-name permutation.  Different seeds give different logs
of the same models, so the figures of two seeds are comparable.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from pathlib import Path

from repro.logs.csvio import write_csv
from repro.logs.log import EventLog
from repro.matching.evaluation import Correspondence
from repro.synthesis.corpus import (
    REAL_CORPUS_PLAN,
    TESTBED_COMPOSITE,
    TESTBED_DSFB,
    build_scalability_pair,
    make_log_pair,
)
from repro.synthesis.generator import (
    ACYCLIC_PROFILE,
    random_process_tree,
    reweighted,
)
from repro.synthesis.names import FUNCTIONAL_AREAS, area_pool
from repro.synthesis.playout import play_out

#: Figure 8's event counts that the paper calls large (Section 5.2).
FIG8_SIZES = (60, 70, 80, 90, 100)
#: Seed, size grid and pairs per size of the paper's Figure-8 corpus.
FIG8_CORPUS_SEED = 2014
FIG8_CORPUS_SIZES = tuple(range(10, 101, 10))
FIG8_CORPUS_PER_SIZE = 20


@dataclass
class PairFiles:
    """One log pair on disk, with the truth its results are scored by."""

    name: str
    first: Path
    second: Path
    truth: tuple[Correspondence, ...]


def _derived_seed(seed: int, *labels: object) -> int:
    """A seed for one named stream of the run seed (stable across runs)."""
    return random.Random(repr((seed,) + labels)).randrange(2**31)


def _write_pair(directory: Path, name: str, first: EventLog, second: EventLog,
                truth) -> PairFiles:
    paths = directory / f"{name}-a.csv", directory / f"{name}-b.csv"
    write_csv(first, paths[0])
    write_csv(second, paths[1])
    return PairFiles(name, paths[0], paths[1], tuple(truth))


# ----------------------------------------------------------------------
# match_wide: Figure-8 scalability pairs
# ----------------------------------------------------------------------
def fig8_pair_seeds(trees_per_size: int) -> list[tuple[int, int]]:
    """``(size, pair_seed)`` of the first Figure-8 corpus pairs per large size.

    Replays the seed stream of ``build_scalability_pairs`` with its
    defaults, so the pair seeds are those of the paper-scale corpus.
    """
    if not 1 <= trees_per_size <= FIG8_CORPUS_PER_SIZE:
        raise ValueError(f"trees_per_size must be in 1..{FIG8_CORPUS_PER_SIZE}")
    rng = random.Random(FIG8_CORPUS_SEED)
    chosen = []
    for size in FIG8_CORPUS_SIZES:
        seeds = [rng.randrange(2**31) for _ in range(FIG8_CORPUS_PER_SIZE)]
        if size in FIG8_SIZES:
            chosen.extend((size, pair_seed) for pair_seed in seeds[:trees_per_size])
    return chosen


def fig8_tree(size: int, pair_seed: int):
    """``(tree, rng)`` as ``build_scalability_pair(size, pair_seed)`` has them
    just before it plays out its first log."""
    names = [f"Activity {index:03d}" for index in range(size)]
    rng = random.Random(pair_seed)
    rng.shuffle([f"Task {index:03d}" for index in range(size)])
    return random_process_tree(names, rng, ACYCLIC_PROFILE), rng


def fig8_logs(size: int, pair_seed: int, playout_seed: int, traces_per_log: int):
    """``(log_first, log_second, truth)`` on the tree of one Figure-8 pair.

    The tree is the one ``build_scalability_pair(size, pair_seed)``
    draws; traces, reweighting and task names come from *playout_seed*.
    """
    tree, _ = fig8_tree(size, pair_seed)
    names = [f"Activity {index:03d}" for index in range(size)]
    tasks = [f"Task {index:03d}" for index in range(size)]
    rng = random.Random(playout_seed)
    rng.shuffle(tasks)
    rename = dict(zip(names, tasks))
    first = play_out(tree, traces_per_log, rng, name=f"fig8-{size}-a")
    second = play_out(
        reweighted(tree, rng), traces_per_log, rng, name=f"fig8-{size}-b"
    ).relabel(rename)
    present = second.activities()
    truth = tuple(
        Correspondence.one_to_one(activity, rename[activity])
        for activity in sorted(first.activities())
        if rename[activity] in present
    )
    return first, second, truth


def write_fig8_pairs(directory: Path, seed: int, trees_per_size: int,
                     traces_per_log: int = 80, sizes=FIG8_SIZES) -> list[PairFiles]:
    """The ``match_wide`` inputs of one seed, written as CSV pairs."""
    directory.mkdir(parents=True, exist_ok=True)
    pairs = []
    for index, (size, pair_seed) in enumerate(fig8_pair_seeds(trees_per_size)):
        if size not in sizes:
            continue
        first, second, truth = fig8_logs(
            size, pair_seed, _derived_seed(seed, "fig8", index), traces_per_log
        )
        pairs.append(_write_pair(directory, f"fig8-{index:02d}", first, second, truth))
    return pairs


# ----------------------------------------------------------------------
# composite_testbed: the COMPOSITE testbed of the real-like corpus
# ----------------------------------------------------------------------
def composite_specs() -> list[dict]:
    """Parameters of the 46 COMPOSITE pairs of ``build_real_like_corpus()``.

    Replays its plan loop with the default seed and keeps, per COMPOSITE
    pair, everything but the pair's own seed: functional area, size,
    dislocation, composite splits and structural swaps.
    """
    rng = random.Random(FIG8_CORPUS_SEED)
    specs = []
    index = 0
    for testbed, count in REAL_CORPUS_PLAN:
        for _ in range(count):
            area = FUNCTIONAL_AREAS[index % len(FUNCTIONAL_AREAS)]
            pool_size = len(area_pool(area))
            dislocation = rng.choice((1, 2, 2, 3))
            extras = dislocation * (2 if testbed == TESTBED_DSFB else 1)
            size = rng.randint(6, max(6, min(11, pool_size - extras)))
            splits = rng.randint(1, 2) if testbed == TESTBED_COMPOSITE else 0
            swaps = 1 if rng.random() < 0.5 else 0
            rng.randrange(2**31)  # the pair seed, replaced by the run's
            if testbed == TESTBED_COMPOSITE:
                specs.append({
                    "area": area, "size": size, "dislocation": dislocation,
                    "composite_splits": splits, "structural_swaps": swaps,
                })
            index += 1
    return specs


def write_composite_pairs(directory: Path, seed: int, copies: int,
                          pairs: int | None = None,
                          traces_per_log: int = 60) -> list[PairFiles]:
    """*copies* draws of the COMPOSITE testbed, written as CSV pairs.

    Each pair keeps the parameters of its paper-corpus counterpart
    (:func:`composite_specs`); its model, traces and label garbling come
    from a seed of the run seed.
    """
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for copy in range(copies):
        for index, spec in enumerate(composite_specs()[:pairs]):
            pair = make_log_pair(
                testbed=TESTBED_COMPOSITE,
                seed=_derived_seed(seed, "composite", copy, index),
                traces_per_log=traces_per_log,
                **spec,
            )
            written.append(_write_pair(
                directory, f"comp-{copy}-{index:02d}",
                pair.log_first, pair.log_second, pair.truth,
            ))
    return written


# ----------------------------------------------------------------------
# service_mix: pairs whose files can grow in place
# ----------------------------------------------------------------------
@dataclass
class GrowingLog:
    """A CSV log written in its initial state, with tails to append later.

    Each tail holds whole new cases (fresh case ids), which is what the
    store's append fast path requires.
    """

    path: Path
    initial: str
    tails: list[str]
    appended: int = 0

    def state_text(self, appended: int) -> str:
        """The file's content after *appended* tails."""
        return self.initial + "".join(self.tails[:appended])

    def append_next(self) -> int:
        """Append the next tail in place; returns the new state index."""
        with open(self.path, "a", encoding="utf-8", newline="") as handle:
            handle.write(self.tails[self.appended])
        self.appended += 1
        return self.appended


@dataclass
class ServicePair:
    name: str
    logs: tuple[GrowingLog, GrowingLog]
    truth: tuple[Correspondence, ...]

    def state(self) -> tuple[int, int]:
        """How many tails each log has had appended."""
        return self.logs[0].appended, self.logs[1].appended


def _csv_text(traces, name: str) -> str:
    buffer = io.StringIO(newline="")
    write_csv(EventLog(traces, name=name), buffer)
    return buffer.getvalue()


def _growing_log(path: Path, log: EventLog, initial: int, tail: int,
                 tails: int) -> GrowingLog:
    traces = list(log)
    head = _csv_text(traces[:initial], log.name)
    bodies = []
    for index in range(tails):
        chunk = traces[initial + index * tail: initial + (index + 1) * tail]
        text = _csv_text(chunk, log.name)
        bodies.append(text[text.index("\n") + 1:])  # drop the header row
    path.write_text(head, encoding="utf-8", newline="")
    return GrowingLog(path, head, bodies)


def write_service_pairs(directory: Path, seed: int, count: int, activities: int,
                        traces_per_log: int, tail_traces: int,
                        tails: int) -> list[ServicePair]:
    """*count* structured pairs (``build_scalability_pair``) for the daemon.

    Each log is written with *traces_per_log* cases and keeps *tails*
    further chunks of *tail_traces* cases of the same process to append.
    """
    directory.mkdir(parents=True, exist_ok=True)
    pairs = []
    for index in range(count):
        pair = build_scalability_pair(
            activities, seed=_derived_seed(seed, "service", index),
            traces_per_log=traces_per_log + tails * tail_traces,
        )
        name = f"svc-{index:02d}"
        logs = tuple(
            _growing_log(directory / f"{name}-{side}.csv", log,
                         traces_per_log, tail_traces, tails)
            for side, log in (("a", pair.log_first), ("b", pair.log_second))
        )
        pairs.append(ServicePair(name, logs, pair.truth))
    return pairs
