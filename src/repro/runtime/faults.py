"""Deterministic fault injection for chaos-testing the durable runtime.

Real failures — a half-written checkpoint file, a signal at the wrong
moment — are timing-dependent and unreproducible, which makes the
recovery paths the *least* tested code in a pipeline.  This module
replaces the randomness with a script: a :class:`FaultPlan` is a list of
:class:`FaultSpec` rows saying *where* (a named site plus an optional
round) and *what* (checkpoint corruption, cooperative interrupt) should
go wrong.  Matching is purely coordinate-based — no shared mutable
state — so the same plan replays the same chaos on every run.

Sites currently wired up (see ``docs/robustness.md``), each with the one
kind it acts out; any other site or pairing is rejected when the spec is
built, because it would never fire:

=====================  =====================================================
``search.round``       the top of a greedy round (kind ``interrupt`` —
                       simulates SIGTERM arriving at the boundary)
``checkpoint.write``   one checkpoint save (kind ``corrupt`` — the bytes
                       on disk are flipped *after* the digest was taken,
                       modelling bit rot / a torn write)
=====================  =====================================================

Seeding: byte corruption positions derive from ``FaultPlan.seed`` and the
checkpoint's round, never from a live RNG, and nothing here reads a wall
clock, so chaos tests stay deterministic.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass

#: Fault kinds a spec may request.
KIND_CORRUPT = "corrupt"
KIND_INTERRUPT = "interrupt"

#: The wired fault sites, each with the kind its call site acts out.
SITES = {"search.round": KIND_INTERRUPT, "checkpoint.write": KIND_CORRUPT}


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
    #: Seed for the deterministic byte-corruption positions.
    seed: int = 0

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
    def corrupt(self, payload: bytes, *, round: int | None = None) -> bytes:
        """Deterministically flip a few bytes of *payload*.

        Positions derive from ``(seed, round, len(payload))`` so the
        same plan corrupts the same checkpoint the same way on every
        run.  At least one byte always changes.
        """
        if not payload:
            return payload
        mixed = (self.seed * 1_000_003 + (round or 0)) * 1_000_003 + len(payload)
        rng = random.Random(mixed)
        corrupted = bytearray(payload)
        for _ in range(max(1, len(payload) // 4096)):
            position = rng.randrange(len(corrupted))
            corrupted[position] ^= 0xFF
        return bytes(corrupted)

    # ------------------------------------------------------------------
    # (De)serialization — lets the CLI load a plan for chaos smoke tests
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "specs": [asdict(spec) for spec in self.specs]},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        document = json.loads(text)
        specs = tuple(FaultSpec(**raw) for raw in document.get("specs", ()))
        return cls(specs=specs, seed=document.get("seed", 0))


#: Convenience null plan: ``match`` on it never matches.  Code should
#: still prefer ``faults is not None`` guards on hot paths.
NO_FAULTS = FaultPlan()
