"""Behavioral footprints: order relations between activities.

The classic process-mining abstraction (the "footprint matrix" of the
alpha algorithm, and the basis of behavioral profiles à la Weidlich et
al., whose ICoP framework the paper discusses in related work): from the
directly-follows pairs of a log, every activity pair falls into one of

* ``CAUSAL``     — ``a > b`` but never ``b > a`` (strict order),
* ``REVERSE``    — ``b > a`` but never ``a > b``,
* ``PARALLEL``   — both directions observed (interleaving),
* ``EXCLUSIVE``  — never adjacent in either direction.

Footprints power the :class:`repro.baselines.profiles.ProfileMatcher`
baseline and are generally useful for inspecting synthesized logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.logs.log import EventLog


class Relation(str, Enum):
    """Order relation between two activities in a footprint."""

    CAUSAL = "->"
    REVERSE = "<-"
    PARALLEL = "||"
    EXCLUSIVE = "#"


@dataclass(frozen=True, slots=True)
class Footprint:
    """The footprint matrix of an event log."""

    activities: tuple[str, ...]
    _relations: dict[tuple[str, str], Relation]

    def relation(self, first: str, second: str) -> Relation:
        """The relation between two activities (EXCLUSIVE if unrecorded)."""
        if first not in self.activities or second not in self.activities:
            raise KeyError(f"unknown activity in pair ({first!r}, {second!r})")
        return self._relations.get((first, second), Relation.EXCLUSIVE)

    def profile(self, activity: str) -> tuple[float, float, float, float]:
        """Relative relation counts of *activity* against all others.

        Returns the fractions ``(causal, reverse, parallel, exclusive)``
        over the other activities — a label-free structural fingerprint.
        """
        others = [other for other in self.activities if other != activity]
        if not others:
            return (0.0, 0.0, 0.0, 1.0)
        counts = {relation: 0 for relation in Relation}
        for other in others:
            counts[self.relation(activity, other)] += 1
        total = len(others)
        return (
            counts[Relation.CAUSAL] / total,
            counts[Relation.REVERSE] / total,
            counts[Relation.PARALLEL] / total,
            counts[Relation.EXCLUSIVE] / total,
        )

    def render(self) -> str:
        """An aligned textual footprint matrix (for debugging/reports)."""
        width = max(len(activity) for activity in self.activities)
        header = " " * (width + 1) + " ".join(
            activity.rjust(width) for activity in self.activities
        )
        lines = [header]
        for first in self.activities:
            cells = " ".join(
                self.relation(first, second).value.rjust(width)
                for second in self.activities
            )
            lines.append(f"{first.rjust(width)} {cells}")
        return "\n".join(lines)


def compute_footprint(log: EventLog) -> Footprint:
    """Build the footprint matrix of *log* from its directly-follows pairs."""
    follows: set[tuple[str, str]] = set()
    for variant in log.variant_counts():
        follows.update(zip(variant, variant[1:]))
    activities = tuple(sorted(log.activities()))
    relations: dict[tuple[str, str], Relation] = {}
    for first in activities:
        for second in activities:
            forward = (first, second) in follows
            backward = (second, first) in follows
            if forward and backward:
                relations[(first, second)] = Relation.PARALLEL
            elif forward:
                relations[(first, second)] = Relation.CAUSAL
            elif backward:
                relations[(first, second)] = Relation.REVERSE
            # EXCLUSIVE is the default; omit to keep the dict sparse.
    return Footprint(activities, relations)


def footprint_agreement(
    first: Footprint,
    second: Footprint,
    mapping: dict[str, str],
) -> float:
    """Fraction of mapped activity pairs with identical relations.

    Given a 1:1 ``mapping`` from the first footprint's activities to the
    second's, compare the relation of every mapped pair ``(a, b)`` with
    the relation of ``(mapping[a], mapping[b])``; return the agreeing
    fraction (1.0 for an order-isomorphic mapping).
    """
    mapped = sorted(mapping)
    if len(mapped) < 2:
        return 1.0 if mapped else 0.0
    total = 0
    agreeing = 0
    for a in mapped:
        for b in mapped:
            if a == b:
                continue
            total += 1
            if first.relation(a, b) == second.relation(mapping[a], mapping[b]):
                agreeing += 1
    return agreeing / total
