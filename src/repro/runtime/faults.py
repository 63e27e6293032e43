"""Deterministic fault injection for chaos-testing the durable runtime.

Real failures — a flaky evaluation, a half-written checkpoint file, a
signal at the wrong moment — are timing-dependent and unreproducible,
which makes the recovery paths the *least* tested code in a pipeline.
This module replaces the randomness with a script: a :class:`FaultPlan`
is a list of :class:`FaultSpec` rows saying *where* (a named site plus
coordinates like round / candidate / attempt) and *what* (transient
exception, checkpoint corruption, cooperative interrupt) should go
wrong.  Firing is purely coordinate-matched — no shared mutable state —
so the same plan replays the same chaos on every run.

Sites currently wired up (see ``docs/robustness.md``):

=====================  =====================================================
``evaluate``           one candidate evaluation (kind ``transient``)
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
from typing import Any

from repro.exceptions import ReproError

#: Fault kinds a spec may request.
KIND_TRANSIENT = "transient"
KIND_CORRUPT = "corrupt"
KIND_INTERRUPT = "interrupt"
KINDS = (KIND_TRANSIENT, KIND_CORRUPT, KIND_INTERRUPT)


class TransientFault(ReproError):
    """An injected (or genuinely transient) failure worth retrying.

    The supervisor retries these under its
    :class:`~repro.runtime.RetryPolicy`; any *other* exception from a
    candidate evaluation is treated as deterministic poison and
    quarantined without burning retries.
    """


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One scripted fault: where it fires and what it does.

    ``None`` coordinates are wildcards; ``attempts`` lists the attempt
    numbers (1-based) the fault fires on, so ``attempts=(1,)`` models a
    failure that a single retry heals and ``attempts=(1, 2, 3)`` a
    poison candidate that defeats a three-attempt policy.  An empty
    ``attempts`` tuple is the every-attempt wildcard.
    """

    site: str
    kind: str
    round: int | None = None
    side: int | None = None
    run: tuple[str, ...] | None = None
    attempts: tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")

    def matches(
        self,
        site: str,
        *,
        round: int | None = None,
        side: int | None = None,
        run: tuple[str, ...] | None = None,
        attempt: int = 1,
    ) -> bool:
        if site != self.site:
            return False
        if self.round is not None and round != self.round:
            return False
        if self.side is not None and side != self.side:
            return False
        if self.run is not None and (run is None or tuple(run) != self.run):
            return False
        if self.attempts and attempt not in self.attempts:
            return False
        return True


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """An immutable script of faults for one run.

    ``fire`` is the single hook instrumented code calls; with no
    matching spec it is a handful of tuple comparisons, and production
    code never constructs a plan at all (the hooks are behind
    ``faults is not None`` checks).
    """

    specs: tuple[FaultSpec, ...] = ()
    #: Seed for the deterministic byte-corruption positions.
    seed: int = 0

    def __bool__(self) -> bool:
        return bool(self.specs)

    # ------------------------------------------------------------------
    def match(self, site: str, **coordinates: Any) -> FaultSpec | None:
        """First spec matching *site* at *coordinates*, or ``None``."""
        for spec in self.specs:
            if spec.matches(site, **coordinates):
                return spec
        return None

    def fire(self, site: str, **coordinates: Any) -> FaultSpec | None:
        """Act out the matching spec, if any.

        * ``transient`` — raise :class:`TransientFault`.
        * ``interrupt`` / ``corrupt`` — never acted here; they are
          returned for the call site (round loop, checkpoint writer) to
          interpret.

        Returns the matched spec, in case the caller wants to log it.
        """
        spec = self.match(site, **coordinates)
        if spec is None:
            return None
        if spec.kind == KIND_TRANSIENT:
            raise TransientFault(
                f"injected transient fault at {site} {coordinates!r}"
            )
        return spec

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
        specs = []
        for raw in document.get("specs", ()):
            raw = dict(raw)
            if raw.get("run") is not None:
                raw["run"] = tuple(raw["run"])
            if raw.get("attempts") is not None:
                raw["attempts"] = tuple(raw["attempts"])
            specs.append(FaultSpec(**raw))
        return cls(specs=tuple(specs), seed=document.get("seed", 0))


#: Convenience null plan: ``fire`` on it never acts.  Code should still
#: prefer ``faults is not None`` guards on hot paths.
NO_FAULTS = FaultPlan()
