"""The :class:`EventLog`: a multiset of traces.

An event log is the paper's input object (Section 2): ``a multi-set of
traces from V*``.  The class keeps traces in insertion order (duplicates
allowed — the *multiset* part matters, because dependency-graph frequencies
are fractions of traces) and offers the derived views the matching layer
needs.

Beside the traces the log keeps one *variant table*: each distinct
activity sequence with its multiplicity, in first-seen order.  Every count
the matching layer takes over a log reads that table and weights each
variant by its multiplicity, so a log of many traces but few variants is
counted at the cost of its variants.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from repro.exceptions import EventLogError
from repro.logs.events import Event, Trace

#: Reserved activity name used for the artificial event in dependency
#: graphs.  Logs must not contain it; :class:`EventLog` enforces this.
RESERVED_ACTIVITY = "⊥X"  # "⊥X"

K = TypeVar("K")


class EventLog:
    """A multiset of :class:`Trace` objects with a name.

    Parameters
    ----------
    traces:
        The traces of the log.  Bare activity-string sequences are accepted
        and wrapped.  Empty traces are rejected — an empty trace carries no
        behavioural information and would corrupt frequency normalization.
    name:
        A human-readable identifier used in reports.
    """

    __slots__ = ("_traces", "_variants", "name")

    def __init__(
        self,
        traces: Iterable[Trace | Iterable[Event | str]] = (),
        name: str = "log",
    ):
        self.name = name
        self._traces: list[Trace] = []
        self._variants: dict[tuple[str, ...], int] = {}
        for trace in traces:
            self.append(trace if isinstance(trace, Trace) else Trace(trace))

    def append(self, trace: Trace) -> None:
        """Add *trace* to the log, validating it."""
        if not isinstance(trace, Trace):
            raise TypeError(f"expected Trace, got {type(trace).__name__}")
        variant = trace.activities
        seen = self._variants.get(variant)
        if seen is None:
            # Equal activity sequences validate alike: check each variant once.
            _check_variant(variant)
            seen = 0
        self._variants[variant] = seen + 1
        self._traces.append(trace)

    @property
    def traces(self) -> tuple[Trace, ...]:
        """The traces of the log, in insertion order (duplicates allowed)."""
        return tuple(self._traces)

    def __len__(self) -> int:
        return len(self._traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self._traces)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return self._variants == other._variants

    def __repr__(self) -> str:
        return (
            f"EventLog(name={self.name!r}, traces={len(self._traces)}, "
            f"activities={len(self.activities())})"
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def variant_counts(self) -> Counter[tuple[str, ...]]:
        """Multiplicity of each distinct activity sequence (trace variant),
        in first-seen order."""
        return Counter(self._variants)

    def activities(self) -> frozenset[str]:
        """All distinct activities appearing in the log."""
        names: set[str] = set()
        for variant in self._variants:
            names.update(variant)
        return frozenset(names)

    def count_over_variants(
        self, keys: Callable[[tuple[str, ...]], Iterable[K]]
    ) -> Counter[K]:
        """``sum(multiplicity * Counter(keys(variant)))`` over the variant
        table: every count the matching layer takes of a log.

        Each variant's keys are tallied once; a variant of multiplicity
        ``m`` then adds ``m - 1`` more per key, one tally per multiplicity
        class.  The integers are those of a trace-by-trace
        count, and keys come out in the order such a count first meets
        them.
        """
        # Key sets are consumed as they are made: holding one per variant
        # would wake the cyclic garbage collector on large logs.
        totals: Counter[K] = Counter(chain.from_iterable(map(keys, self._variants)))
        repeats: dict[int, list[tuple[str, ...]]] = {}
        for variant, multiplicity in self._variants.items():
            if multiplicity > 1:
                repeats.setdefault(multiplicity - 1, []).append(variant)
        for weight, variants in repeats.items():
            for key, count in Counter(chain.from_iterable(map(keys, variants))).items():
                totals[key] += weight * count
        return totals

    def activity_trace_counts(self) -> Counter[str]:
        """For each activity, the number of traces that contain it.

        This is the numerator of the node frequency ``f(v)`` in
        Definition 1 (``the fraction of traces in L that contain v``).
        """
        return self.count_over_variants(frozenset)

    def pair_trace_counts(self) -> Counter[tuple[str, str]]:
        """For each ordered pair, the number of traces where it occurs
        consecutively at least once (edge frequency numerator,
        Definition 1)."""
        return self.count_over_variants(lambda variant: set(zip(variant, variant[1:])))

    # ------------------------------------------------------------------
    # Transformations (all return new logs; logs are append-only otherwise)
    # ------------------------------------------------------------------
    def map_traces(
        self, transform: Callable[[Trace], Trace | None], name: str | None = None
    ) -> "EventLog":
        """Apply *transform* to every trace; ``None`` or empty results are
        dropped.  The workhorse behind the mutation operators."""
        result = EventLog(name=name if name is not None else self.name)
        for trace in self._traces:
            new_trace = transform(trace)
            if new_trace is not None and len(new_trace) > 0:
                result.append(new_trace)
        return result

    def relabel(self, mapping: Mapping[str, str], name: str | None = None) -> "EventLog":
        """Rename activities through *mapping* (used by opacification)."""
        return self.map_traces(lambda trace: trace.relabel(mapping), name=name)

    def rewrite_variants(
        self,
        rewrites: Mapping[tuple[str, ...], tuple[str, ...]],
        transform: Callable[[Trace], Trace],
    ) -> "EventLog":
        """A copy in which each trace of a variant in *rewrites* goes
        through *transform*, which must turn it into the variant
        ``rewrites[variant]``; every other trace is shared as it is.

        The variant table is patched, not recounted: each old variant, in
        first-seen order, hands its multiplicity to its new variant, and
        variants that collide add up — the table appending the new traces
        one by one would build.
        """
        for variant in rewrites.values():
            _check_variant(variant)
        result = EventLog(name=self.name)
        result._traces = [
            transform(trace) if trace.activities in rewrites else trace
            for trace in self._traces
        ]
        variants = result._variants
        for variant, multiplicity in self._variants.items():
            new = rewrites.get(variant, variant)
            variants[new] = variants.get(new, 0) + multiplicity
        return result

    def filter_traces(
        self, predicate: Callable[[Trace], bool], name: str | None = None
    ) -> "EventLog":
        """Keep only the traces satisfying *predicate*."""
        result = EventLog(name=name if name is not None else self.name)
        for trace in self._traces:
            if predicate(trace):
                result.append(trace)
        return result


def _check_variant(variant: tuple[str, ...]) -> None:
    """Reject an activity sequence no trace of a log may have."""
    if not variant:
        raise EventLogError("empty traces are not allowed in an event log")
    if RESERVED_ACTIVITY in variant:
        raise EventLogError(
            f"activity name {RESERVED_ACTIVITY!r} is reserved for the artificial event"
        )
