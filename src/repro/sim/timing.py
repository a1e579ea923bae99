"""Pluggable timing models: how party latencies relate to the paper's Δ.

The paper's entire safety argument hangs on one timing assumption: Δ is
"enough time for one party to publish a smart contract ... and for the
other party to detect the change", i.e. every conforming party's
``reaction_delay + action_delay`` fits within Δ.  A :class:`TimingModel`
makes that assumption an explicit, swappable axis of a simulation
instead of a hard-coded constant:

``uniform``
    Every party gets the same deterministic
    :class:`~repro.sim.process.ReactionProfile` (the historical
    behaviour, and the default).  Conforming by construction.

``jittered``
    Each party draws its own reaction/action delays from a seeded
    per-party RNG, *within* the conforming Δ budget (round trip ≤ Δ).
    Theorem 4.9's guarantee must survive any such draw — jittered
    sweeps probe that claim empirically.

``stragglers``
    A chosen (or seeded) subset of parties violates the Δ assumption:
    their round trip is ``violation × Δ > Δ``.  This is the regime the
    theorems do *not* cover; sweeping it locates where the all-Deal and
    no-Underwater guarantees actually break once parties are slower
    than the protocol's deadlines assume.

``adaptive-stragglers``
    The same seeded victims as ``stragglers``, but conforming until the
    protocol milestone named by ``at`` (default ``secret-released``)
    and then spending the same time-integrated violation budget all at
    once — a milestone *intervention* registered through the
    execution-session API (:meth:`TimingModel.install`), so this model
    only runs under ``Engine.open``/``Engine.run``.

Models serialize to plain dicts (``{"kind": ..., **params}``) so they
can ride inside a :class:`repro.api.Scenario`, participate in run-key
hashing, and cross process boundaries.  Everything is deterministic in
``(seed, model params, vertex name)`` — two runs of the same scenario
draw identical profiles.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from random import Random
from typing import Any, Iterable, Mapping, Sequence

from repro.crypto.hashing import sha256
from repro.errors import TimingError
from repro.sim.clock import ticks
from repro.sim.milestones import MILESTONE_KINDS, SECRET_RELEASED, SETTLED
from repro.sim.process import ReactionProfile

#: The timing kind applied when a scenario does not name one.
DEFAULT_TIMING_KIND = "uniform"


def _sub_seed(seed: int, *parts: str) -> int:
    """A stable 63-bit sub-seed for one (seed, label...) combination."""
    digest = sha256((f"timing:{seed}:" + ":".join(parts)).encode())
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


class TimingModel(ABC):
    """One named rule assigning a :class:`ReactionProfile` per party."""

    #: Registry key; subclasses must override.
    kind: str = ""

    #: Whether the model intervenes mid-run (at protocol milestones) and
    #: therefore only runs under the execution-session API
    #: (:meth:`repro.api.Engine.open`); static models leave this False.
    requires_session: bool = False

    def install(self, execution: Any) -> None:
        """Session hook: register probes/interventions on an
        :class:`repro.api.execution.Execution` before it starts.

        Called once by the execution session for every run.  Static
        models (everything whose behaviour is fully described by
        :meth:`profiles`) do nothing here; adaptive models register
        milestone interventions that mutate party profiles mid-run.
        """

    @abstractmethod
    def profiles(
        self,
        vertices: Iterable[str],
        *,
        delta: int,
        reaction_fraction: float,
        action_fraction: float,
        seed: int,
    ) -> dict[str, ReactionProfile]:
        """Deterministic per-party profiles for one simulation run.

        ``reaction_fraction``/``action_fraction`` are the configured
        baseline latencies (the profile every party gets under
        ``uniform``); models may use, perturb, or ignore them.
        """

    def params(self) -> dict[str, Any]:
        """The model's JSON-compatible parameters (defaults included)."""
        return {}

    def to_dict(self) -> dict[str, Any]:
        """The canonical serialized form: ``{"kind": ..., **params}``."""
        return {"kind": self.kind, **self.params()}

    def is_default(self) -> bool:
        """Whether this model is the back-compat default (uniform)."""
        return self.kind == DEFAULT_TIMING_KIND

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TimingModel) and self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        # params() may hold lists (e.g. pinned straggler parties), so
        # hash the canonical JSON encoding rather than the raw values.
        return hash(json.dumps(self.to_dict(), sort_keys=True))

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({args})"


class UniformTiming(TimingModel):
    """Every party reacts and acts with the same configured latencies.

    This is exactly the pre-timing-model behaviour: one
    ``ReactionProfile.fractions(delta, reaction, action)`` shared by
    all parties, conforming as long as the configured fractions sum to
    at most 1.
    """

    kind = "uniform"

    def profiles(
        self,
        vertices: Iterable[str],
        *,
        delta: int,
        reaction_fraction: float,
        action_fraction: float,
        seed: int,
    ) -> dict[str, ReactionProfile]:
        profile = ReactionProfile.fractions(
            delta, reaction_fraction, action_fraction
        )
        return {vertex: profile for vertex in vertices}


class JitteredTiming(TimingModel):
    """Per-party seeded latencies drawn within the conforming Δ budget.

    Each party's round trip is drawn uniformly from
    ``[max(1, min_fraction·Δ), Δ]`` and split at a random point into
    reaction and action delays.  Every draw satisfies
    ``reaction + action ≤ Δ``, so jittered parties are still conforming
    in the paper's sense — the theorems must hold for any draw.
    """

    kind = "jittered"

    def __init__(self, min_fraction: float = 0.05) -> None:
        if not 0.0 <= min_fraction <= 1.0:
            raise TimingError(
                f"jittered min_fraction must be within [0, 1], got {min_fraction}"
            )
        self.min_fraction = float(min_fraction)

    def params(self) -> dict[str, Any]:
        return {"min_fraction": self.min_fraction}

    def profiles(
        self,
        vertices: Iterable[str],
        *,
        delta: int,
        reaction_fraction: float,
        action_fraction: float,
        seed: int,
    ) -> dict[str, ReactionProfile]:
        floor = max(1, ticks(delta, self.min_fraction)) if self.min_fraction else 1
        floor = min(floor, delta)
        out: dict[str, ReactionProfile] = {}
        for vertex in vertices:
            rng = Random(_sub_seed(seed, self.kind, str(vertex)))
            round_trip = rng.randint(floor, delta)
            reaction = rng.randint(0, round_trip)
            out[vertex] = ReactionProfile(
                reaction_delay=reaction, action_delay=round_trip - reaction
            )
        return out


class StragglerTiming(TimingModel):
    """A subset of parties violates ``reaction + action ≤ Δ``.

    ``parties`` pins the stragglers explicitly; otherwise ``count``
    parties are chosen deterministically from the seed (clamped to the
    party count).  Stragglers get a round trip of ``violation × Δ``
    (which must exceed Δ — that is the point); everyone else keeps the
    uniform baseline profile.  Sweeping ``violation`` empirically maps
    where Theorem 4.9's guarantee stops holding once its timing
    premise is broken.
    """

    kind = "stragglers"

    def __init__(
        self,
        count: int = 1,
        violation: float = 3.0,
        parties: Sequence[str] | None = None,
    ) -> None:
        if count < 1:
            raise TimingError(f"stragglers count must be >= 1, got {count}")
        if violation <= 1.0:
            raise TimingError(
                "stragglers violation must exceed 1.0 (a round trip within "
                f"Δ does not violate the assumption), got {violation}"
            )
        self.count = int(count)
        self.violation = float(violation)
        self.parties = tuple(parties) if parties else None

    def params(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "violation": self.violation,
            "parties": list(self.parties) if self.parties else None,
        }

    def straggler_set(self, vertices: Iterable[str], seed: int) -> frozenset[str]:
        """Which parties violate Δ for this (vertices, seed) pair.

        Seeded under the base ``"stragglers"`` label for *every*
        subclass, so the static and adaptive models pick the same
        victims at the same seed — head-to-head comparisons vary only
        *when* the budget is spent, never *who* spends it.
        """
        pool = sorted(vertices)
        if self.parties is not None:
            unknown = [p for p in self.parties if p not in set(pool)]
            if unknown:
                raise TimingError(
                    f"stragglers name unknown parties {unknown}; "
                    f"topology has {pool}"
                )
            return frozenset(self.parties)
        rng = Random(_sub_seed(seed, StragglerTiming.kind))
        return frozenset(rng.sample(pool, min(self.count, len(pool))))

    def slow_profile(self, delta: int) -> ReactionProfile:
        """The violating profile: a ``violation × Δ`` round trip, split
        evenly between reaction and action."""
        round_trip = max(delta + 1, ticks(delta, self.violation))
        return ReactionProfile(
            reaction_delay=round_trip // 2,
            action_delay=round_trip - round_trip // 2,
        )

    def profiles(
        self,
        vertices: Iterable[str],
        *,
        delta: int,
        reaction_fraction: float,
        action_fraction: float,
        seed: int,
    ) -> dict[str, ReactionProfile]:
        vertices = list(vertices)
        stragglers = self.straggler_set(vertices, seed)
        base = ReactionProfile.fractions(
            delta, reaction_fraction, action_fraction
        )
        slow = self.slow_profile(delta)
        return {
            vertex: slow if vertex in stragglers else base
            for vertex in vertices
        }


class AdaptiveStragglerTiming(StragglerTiming):
    """Stragglers that conform until a protocol milestone, then violate.

    The same seeded straggler choice as :class:`StragglerTiming`, but
    the chosen parties start with the *uniform conforming* profile and
    only adopt a violating one when the milestone named by ``at``
    (default ``secret-released``; see :mod:`repro.sim.milestones`)
    first fires — the adversary behaves impeccably through Phase One,
    lets every contract get escrowed, and goes slow exactly when the
    secrets start to flow and the Δ-gapped relay deadlines are live.

    ``violation`` is the same *time-integrated budget* as the static
    model's: a static straggler spends ``(violation−1)·Δ`` of excess
    latency on every interaction across both phases, so the adaptive
    straggler — active for only the post-trigger half of the run —
    concentrates a doubled per-step excess (round trip
    ``base + 2·(violation−1)·Δ``-ish) into the window where it does
    damage.  Holding the budget fixed is what makes the comparison
    meaningful: same total slowness, different placement.

    Requires the execution-session API (``Engine.open``/``run``): the
    profile swap is a registered milestone intervention, so a direct
    ``run_to_quiescence`` refuses this model rather than silently
    running it as uniform.
    """

    kind = "adaptive-stragglers"
    requires_session = True

    def __init__(
        self,
        count: int = 1,
        violation: float = 3.0,
        parties: Sequence[str] | None = None,
        at: str = SECRET_RELEASED,
    ) -> None:
        super().__init__(count=count, violation=violation, parties=parties)
        if at not in MILESTONE_KINDS or at == SETTLED:
            usable = ", ".join(k for k in MILESTONE_KINDS if k != SETTLED)
            raise TimingError(
                f"adaptive-stragglers cannot trigger at {at!r}; "
                f"usable milestones: {usable}"
            )
        self.at = str(at)

    def params(self) -> dict[str, Any]:
        return {**super().params(), "at": self.at}

    def adaptive_profile(self, delta: int, base: ReactionProfile) -> ReactionProfile:
        """The post-trigger profile: the static model's excess over the
        *configured* baseline, doubled (same budget, spent in one
        phase).  ``install()`` computes it from the harness's actual
        base profile, so non-default reaction/action fractions are
        honoured — there is deliberately no base-free accessor that
        could disagree with what the intervention installs."""
        static_round_trip = max(delta + 1, ticks(delta, self.violation))
        excess = max(1, static_round_trip - base.round_trip)
        round_trip = base.round_trip + 2 * excess
        return ReactionProfile(
            reaction_delay=round_trip // 2,
            action_delay=round_trip - round_trip // 2,
        )

    def profiles(
        self,
        vertices: Iterable[str],
        *,
        delta: int,
        reaction_fraction: float,
        action_fraction: float,
        seed: int,
    ) -> dict[str, ReactionProfile]:
        # Conforming until the trigger: everyone starts on the uniform
        # baseline; the install()ed intervention swaps the stragglers'
        # profiles mid-run.
        profile = ReactionProfile.fractions(
            delta, reaction_fraction, action_fraction
        )
        return {vertex: profile for vertex in vertices}

    def install(self, execution: Any) -> None:
        harness = execution.harness
        stragglers = self.straggler_set(harness.digraph.vertices, harness.seed)
        slow = self.adaptive_profile(harness.delta, harness.base_profile)

        def turn_stragglers(execution: Any, milestone: Any) -> None:
            for vertex in stragglers:
                party = harness.parties.get(vertex)
                if party is not None and not party.is_halted:
                    party.profile = slow

        execution.intervene(self.at, turn_stragglers, once=True)


#: kind -> model class: the timing models a scenario can name.
TIMING_KINDS: dict[str, type[TimingModel]] = {
    UniformTiming.kind: UniformTiming,
    JitteredTiming.kind: JitteredTiming,
    StragglerTiming.kind: StragglerTiming,
    AdaptiveStragglerTiming.kind: AdaptiveStragglerTiming,
}


def resolve_timing(spec: Any) -> TimingModel:
    """Coerce any accepted timing spec into a :class:`TimingModel`.

    Accepts ``None`` (the uniform default), a kind name, a
    ``{"kind": ..., **params}`` dict, or an existing model instance.
    Raises :class:`~repro.errors.TimingError` on unknown kinds or
    parameters, so a scenario that constructs is a scenario every
    engine can honour.
    """
    if spec is None:
        return UniformTiming()
    if isinstance(spec, TimingModel):
        return spec
    if isinstance(spec, str):
        kind, params = spec, {}
    elif isinstance(spec, Mapping):
        params = {str(k): v for k, v in spec.items()}
        kind = params.pop("kind", None)
        if not isinstance(kind, str):
            raise TimingError(
                f"timing dict needs a 'kind' name; got {dict(spec)!r}"
            )
        # A serialized default (parties=None) round-trips cleanly.
        params = {k: v for k, v in params.items() if v is not None}
    else:
        raise TimingError(
            "timing must be None, a kind name, a dict, or a TimingModel; "
            f"got {type(spec).__name__}"
        )
    try:
        model_class = TIMING_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(TIMING_KINDS))
        raise TimingError(
            f"unknown timing kind {kind!r}; registered kinds: {known}"
        ) from None
    try:
        return model_class(**params)
    except TypeError:
        raise TimingError(
            f"timing kind {kind!r} does not accept params "
            f"{sorted(params)}; see {model_class.__name__}"
        ) from None


def timing_to_dict(spec: Any) -> dict[str, Any] | None:
    """Normalise a timing spec to its canonical dict (``None`` stays
    ``None`` — the back-compat "field omitted" form)."""
    if spec is None:
        return None
    return resolve_timing(spec).to_dict()


def is_default_timing(spec: Any) -> bool:
    """True when ``spec`` means "the historical uniform behaviour".

    Scenarios drop default timing from their canonical (hashed) form so
    pre-timing-model run stores stay warm.
    """
    return spec is None or resolve_timing(spec).is_default()
