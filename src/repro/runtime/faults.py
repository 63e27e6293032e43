"""Deterministic fault injection for chaos-testing the durable runtime.

Real failures — a signal at the wrong moment — are timing-dependent and
unreproducible, which makes the recovery paths the *least* tested code
in a pipeline.  This module replaces the randomness with a script: a
:class:`FaultPlan` is a list of :class:`FaultSpec` rows saying *where*
(a named site plus an optional round) and *what* should go wrong.
Matching is purely coordinate-based — no shared mutable state — so the
same plan replays the same chaos on every run.

One site is wired up (see ``docs/robustness.md``), with the one kind it
acts out; any other site or pairing is rejected when the spec is built,
because it would never fire:

=====================  =====================================================
``search.round``       the top of a greedy round (kind ``interrupt`` —
                       simulates SIGTERM arriving at the boundary)
=====================  =====================================================

Nothing here reads a wall clock or a random source, so chaos tests stay
deterministic.  Damage to stored evaluations is simulated by the tests
themselves, by flipping bytes of their store rows between runs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

#: The one fault kind a spec may request.
KIND_INTERRUPT = "interrupt"

#: The wired fault sites, each with the kind its call site acts out.
SITES = {"search.round": KIND_INTERRUPT}


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One scripted fault: where it fires and what it does.

    A ``None`` round is the every-round wildcard.
    """

    site: str
    kind: str
    round: int | None = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"site must be one of {tuple(SITES)}, got {self.site!r}"
            )
        if self.kind != SITES[self.site]:
            raise ValueError(
                f"site {self.site!r} takes kind {SITES[self.site]!r}, "
                f"got {self.kind!r}"
            )

    def matches(self, site: str, *, round: int | None = None) -> bool:
        return site == self.site and self.round in (None, round)


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """An immutable script of faults for one run.

    ``match`` is the single hook instrumented code calls, and the call
    site acts out the spec it returns; production code never constructs
    a plan at all (the hooks are behind ``faults is not None`` checks).
    """

    specs: tuple[FaultSpec, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.specs)

    # ------------------------------------------------------------------
    def match(self, site: str, *, round: int | None = None) -> FaultSpec | None:
        """First spec matching *site* at *round*, or ``None``."""
        for spec in self.specs:
            if spec.matches(site, round=round):
                return spec
        return None

    # ------------------------------------------------------------------
    # (De)serialization — lets the CLI load a plan for chaos smoke tests
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {"specs": [asdict(spec) for spec in self.specs]}, indent=2
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        document = json.loads(text)
        return cls(specs=tuple(FaultSpec(**raw) for raw in document.get("specs", ())))


#: Convenience null plan: ``match`` on it never matches.  Code should
#: still prefer ``faults is not None`` guards on hot paths.
NO_FAULTS = FaultPlan()
