"""End-to-end swap execution: build, wire, run, classify.

:class:`SwapSimulation` is a thin configuration of the shared
:class:`repro.sim.harness.SimulationHarness`: it provisions what is
specific to the hashkey protocol — leaders, keys, secrets, the §4.2
spec, and one :class:`SwapParty` per vertex — while the harness owns the
chains, the observation wiring, the timing-model profiles, and the
run-to-quiescence loop; what it shares with the §4.6 runner is
:class:`HTLCSimulation`.  The result is a :class:`SwapResult` with the
triggered/refunded arc sets, per-party outcomes (Fig. 3), timing, and
byte-level metrics for the complexity theorems.

Usage::

    sim = SwapSimulation(triangle())
    result = sim.run()
    assert result.all_deal()

Deviations are injected via ``faults`` (crash schedules) and
``strategies`` (deviating party classes from :mod:`repro.core.strategies`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.analysis.outcomes import (
    ACCEPTABLE_OUTCOMES,
    Outcome,
    classify_all,
)
from repro.chain.assets import Asset
from repro.chain.network import ChainNetwork
from repro.core.party import HTLCParty, SwapParty
from repro.core.spec import SwapSpec, compute_diameter_for_spec
from repro.crypto.hashing import hash_secret
from repro.crypto.signatures import DEFAULT_SCHEME_NAME, get_scheme
from repro.digraph.digraph import Arc, Digraph, Vertex
from repro.digraph.feedback import feedback_vertex_set
from repro.digraph.paths import EXACT_LONGEST_PATH_LIMIT
from repro.errors import SignatureError, SimulationError
from repro.sim import trace as tr
from repro.sim.clock import DEFAULT_DELTA
from repro.sim.faults import FaultPlan
from repro.sim.harness import (
    SimulationHarness,
    derive_secret,
    provision_keypairs,
)
from repro.sim.process import (
    DEFAULT_ACTION_FRACTION,
    DEFAULT_REACTION_FRACTION,
    ReactionProfile,
)
from repro.sim.trace import Trace

StrategySpec = type[SwapParty] | tuple[type[SwapParty], dict[str, Any]]


@dataclass(frozen=True)
class SwapConfig:
    """Tunable parameters of a swap simulation.

    Defaults reproduce the paper's setting: strict Fig. 5 deadlines
    (``timeout_slack = 0``) with conforming parties whose observe+act round
    trip is ``0.45·Δ`` (see :mod:`repro.sim.process`).
    """

    delta: int = DEFAULT_DELTA
    timeout_slack: int = 0
    scheme_name: str = DEFAULT_SCHEME_NAME
    start_time: int | None = None
    """Protocol start ``T``; defaults to ``delta`` (§4.2: "at least Δ in
    the future")."""
    use_broadcast: bool = False
    """Enable the §4.5 Phase-Two broadcast optimisation."""
    reaction_fraction: float = DEFAULT_REACTION_FRACTION
    action_fraction: float = DEFAULT_ACTION_FRACTION
    seed: int = 7
    exact_limit: int = EXACT_LONGEST_PATH_LIMIT
    diam_override: int | None = None
    """Force a ``diam`` value (safe if >= the true diameter)."""
    timing: Any = None
    """Timing-model spec (``None``/``"uniform"``/``"jittered"``/
    ``"stragglers"``/``"adaptive-stragglers"`` or a
    ``{"kind": ..., **params}`` dict) — see :mod:`repro.sim.timing`.
    ``None`` keeps the historical uniform profile, making old configs
    behave identically."""
    chain_delays: Any = None
    """Per-chain confirmation lag: ``{"head->tail" | "broadcast": ticks}``
    added to every observation of that chain's records (the chain-side
    Δ).  ``None``/empty keeps the historical instant-confirmation
    behaviour."""

    def resolved_start(self) -> int:
        return self.start_time if self.start_time is not None else self.delta


@dataclass
class SwapResult:
    """Everything observable after a swap simulation has quiesced."""

    spec: SwapSpec
    config: SwapConfig
    network: ChainNetwork
    trace: Trace
    parties: dict[Vertex, SwapParty]
    conforming: frozenset[Vertex]
    triggered: frozenset[Arc]
    refunded: frozenset[Arc]
    stuck_in_escrow: frozenset[Arc]
    outcomes: dict[Vertex, Outcome]
    events_fired: int

    # -- headline predicates -----------------------------------------------------

    def all_deal(self) -> bool:
        """Did every party end with Deal (the all-conforming guarantee)?"""
        return all(o is Outcome.DEAL for o in self.outcomes.values())

    def conforming_acceptable(self) -> bool:
        """Theorem 4.9: no conforming party may end Underwater."""
        return all(
            self.outcomes[v] in ACCEPTABLE_OUTCOMES for v in self.conforming
        )

    def underwater_parties(self) -> set[Vertex]:
        return {v for v, o in self.outcomes.items() if o is Outcome.UNDERWATER}

    # -- timing ---------------------------------------------------------------------

    @property
    def completion_time(self) -> int | None:
        """When the last arc triggered (None if nothing triggered)."""
        return self.trace.last_time(tr.ARC_TRIGGERED)

    @property
    def phase_one_complete_time(self) -> int | None:
        """When the last contract was published."""
        return self.trace.last_time(tr.CONTRACT_PUBLISHED)

    def within_time_bound(self) -> bool:
        """Theorem 4.7: all triggers by ``start + 2·diam·Δ`` (+ slack)."""
        done = self.completion_time
        return done is not None and done <= self.spec.phase_two_bound()

    # -- space / communication metrics -------------------------------------------------

    @property
    def stored_bytes(self) -> int:
        return self.network.total_stored_bytes()

    @property
    def contract_storage_bytes(self) -> int:
        return self.network.total_contract_storage_bytes()

    @property
    def published_bytes(self) -> int:
        return self.network.total_published_bytes()

    @property
    def unlock_calls(self) -> int:
        return self.trace.count(tr.HASHLOCK_UNLOCKED)

    def assets_conserved(self) -> bool:
        """Every arc's asset is owned by its head, its tail, or its escrow."""
        for arc in self.spec.digraph.arcs:
            head, tail = arc
            chain = self.network.chain_for_arc(arc)
            owner = chain.assets.owner(f"asset@{head}->{tail}")
            if owner not in {head, tail} and not owner.startswith(chain.chain_id):
                return False
        return True

    def summary(self) -> str:
        lines = [
            f"digraph: |V|={len(self.spec.digraph.vertices)} "
            f"|A|={self.spec.digraph.arc_count()} diam={self.spec.diam} "
            f"leaders={list(self.spec.leaders)}",
            f"triggered: {len(self.triggered)}/{self.spec.digraph.arc_count()} "
            f"refunded: {len(self.refunded)} stuck: {len(self.stuck_in_escrow)}",
            f"completion: {self.completion_time} "
            f"(bound {self.spec.phase_two_bound()})",
            "outcomes: "
            + ", ".join(f"{v}={o.value}" for v, o in sorted(self.outcomes.items())),
        ]
        return "\n".join(lines)


class HTLCSimulation:
    """The assembly both hashed-timelock runners share (§4.5, §4.6).

    Owns the config/fault/strategy defaults, the harness, the
    unknown-party checks, strategy resolution, party wiring and the run
    itself.  A subclass builds its published ``spec`` and then calls
    :meth:`_wire_parties`; it supplies :attr:`party_class` (the
    conforming party), :attr:`include_broadcast` (whether the shared
    broadcast chain exists and reaches every party), and
    :meth:`_party_kwargs` (each party's identity and secret).
    """

    party_class: type[HTLCParty] = HTLCParty
    include_broadcast = False
    connectivity_message = "swap digraphs must be strongly connected"
    spec: Any

    def __init__(
        self,
        digraph: Digraph,
        config: SwapConfig | None = None,
        faults: FaultPlan | None = None,
        strategies: dict[Vertex, Any] | None = None,
        asset_values: dict[Arc, int] | None = None,
    ) -> None:
        self.config = config or SwapConfig()
        self.faults = faults or FaultPlan.none()
        self.strategies = strategies or {}
        self.harness = SimulationHarness.for_config(
            digraph,
            self.config,
            include_broadcast=self.include_broadcast,
            asset_values=asset_values,
            connectivity_message=self.connectivity_message,
        )
        self.digraph = digraph
        self.network = self.harness.network
        self.assets: dict[Arc, Asset] = self.harness.assets
        self.scheduler = self.harness.scheduler
        self.trace: Trace = self.harness.trace

        for vertex in self.strategies:
            if not digraph.has_vertex(vertex):
                raise SimulationError(f"strategy for unknown party {vertex!r}")
        for vertex in self.faults.crashes:
            if not digraph.has_vertex(vertex):
                raise SimulationError(f"fault for unknown party {vertex!r}")

    # -- construction helpers --------------------------------------------------------

    def _party_kwargs(self, vertex: Vertex) -> dict[str, Any]:
        """Constructor arguments that identify ``vertex``'s party."""
        raise NotImplementedError

    def _wire_parties(self, profiles: dict[Vertex, ReactionProfile] | None = None) -> None:
        """One party per vertex (profiles from the timing model unless
        ``profiles`` pins one), then crash faults and observations."""
        explicit = profiles or {}

        def build_party(vertex: Vertex, profile: ReactionProfile) -> HTLCParty:
            # A strategy is a party class, or ``(class, extra kwargs)``.
            entry = self.strategies.get(vertex) or self.party_class
            cls, extra = entry if isinstance(entry, tuple) else (entry, {})
            return cls(
                spec=self.spec,
                network=self.network,
                assets=self.assets,
                trace=self.trace,
                scheduler=self.scheduler,
                profile=explicit.get(vertex, profile),
                **self._party_kwargs(vertex),
                **extra,
            )

        self.parties: dict[Vertex, HTLCParty] = self.harness.build_parties(build_party)
        self.harness.install_faults(self.faults)
        self.harness.wire_observations(broadcast_to_all=self.include_broadcast)

    # -- running ------------------------------------------------------------------------

    def prepared(self):
        """``(harness, start_time, finalize)`` for the execution-session
        layer (:mod:`repro.api.execution`): the session drives the
        harness itself and calls ``finalize(events_fired)`` once
        quiesced."""
        return self.harness, self.spec.start_time, self._collect

    def run(self) -> SwapResult:
        """Run to quiescence and classify the outcome (once: the harness
        refuses a second run)."""
        events = self.harness.run_to_quiescence(self.spec.start_time)
        return self._collect(events)

    def _collect(self, events_fired: int) -> SwapResult:
        conforming = frozenset(
            v
            for v in self.digraph.vertices
            if type(self.parties[v]) is self.party_class
            and v not in self.faults.crashes
        )
        return self.harness.collect(
            spec=self.spec,
            config=self.config,
            conforming=conforming,
            events_fired=events_fired,
        )


class SwapSimulation(HTLCSimulation):
    """Builds and runs one atomic cross-chain swap."""

    party_class = SwapParty
    include_broadcast = True
    connectivity_message = (
        "SwapSimulation requires a strongly connected digraph "
        "(Theorem 3.5; see repro.analysis.attacks for the "
        "impossibility constructions)"
    )

    def __init__(
        self,
        digraph: Digraph,
        leaders: tuple[Vertex, ...] | list[Vertex] | None = None,
        config: SwapConfig | None = None,
        faults: FaultPlan | None = None,
        strategies: dict[Vertex, StrategySpec] | None = None,
        profiles: dict[Vertex, ReactionProfile] | None = None,
        asset_values: dict[Arc, int] | None = None,
    ) -> None:
        super().__init__(digraph, config, faults, strategies, asset_values)

        # -- leaders ---------------------------------------------------------
        if leaders is None:
            chosen = feedback_vertex_set(digraph, exact_limit=self.config.exact_limit)
            ordered = tuple(v for v in digraph.vertices if v in chosen)
        else:
            ordered = tuple(leaders)
        self.leaders = ordered

        # -- keys and secrets (deterministic in the seed) ----------------------
        scheme = get_scheme(self.config.scheme_name)
        if scheme.name == "lamport" and len(self.leaders) > 1:
            raise SignatureError(
                "Lamport keys are one-time, but a multi-leader swap makes "
                "each party sign one hashkey extension per lock; use a "
                "multi-use scheme (ecdsa-secp256k1 or hmac-registry) or a "
                "single-leader digraph"
            )
        self.scheme = scheme
        directory, self.keypairs = provision_keypairs(
            scheme, digraph.vertices, self.config.seed
        )
        self.secrets: dict[Vertex, bytes] = {
            leader: derive_secret("secret", self.config.seed, leader)
            for leader in self.leaders
        }
        hashlocks = tuple(hash_secret(self.secrets[l]) for l in self.leaders)

        # -- the published spec -------------------------------------------------
        diam = (
            self.config.diam_override
            if self.config.diam_override is not None
            else compute_diameter_for_spec(digraph, self.config.exact_limit)
        )
        self.spec = SwapSpec(
            digraph=digraph,
            leaders=self.leaders,
            hashlocks=hashlocks,
            start_time=self.config.resolved_start(),
            delta=self.config.delta,
            diam=diam,
            timeout_slack=self.config.timeout_slack,
            directory=directory,
            schemes={scheme.name: scheme},
            broadcast_unlock_enabled=self.config.use_broadcast,
        )
        self._wire_parties(profiles)

    def _party_kwargs(self, vertex: Vertex) -> dict[str, Any]:
        return {
            "keypair": self.keypairs[vertex],
            "secret": self.secrets.get(vertex),
            "use_broadcast": self.config.use_broadcast,
        }


def collect_result(
    spec: Any,
    config: SwapConfig,
    network: ChainNetwork,
    trace: Trace,
    parties: dict[Vertex, Any],
    conforming: frozenset[Vertex],
    events_fired: int,
) -> SwapResult:
    """Derive a :class:`SwapResult` from final chain state (ground truth).

    Shared by the general runner, the §4.6 single-leader runner, and the
    baseline runners — an arc is *triggered* iff its asset ended up owned
    by the arc's tail, regardless of which contract type moved it.
    """
    triggered: set[Arc] = set()
    refunded: set[Arc] = set()
    stuck: set[Arc] = set()
    for arc in spec.digraph.arcs:
        head, tail = arc
        chain = network.chain_for_arc(arc)
        owner = chain.assets.owner(f"asset@{head}->{tail}")
        if owner == tail:
            triggered.add(arc)
        elif owner.startswith(chain.chain_id):
            stuck.add(arc)
        elif owner == head and any(
            getattr(c, "refunded", False) for c in chain.contracts()
        ):
            refunded.add(arc)

    outcomes = classify_all(spec.digraph, triggered)
    return SwapResult(
        spec=spec,
        config=config,
        network=network,
        trace=trace,
        parties=parties,
        conforming=conforming,
        triggered=frozenset(triggered),
        refunded=frozenset(refunded),
        stuck_in_escrow=frozenset(stuck),
        outcomes=outcomes,
        events_fired=events_fired,
    )


def run_swap(
    digraph: Digraph,
    leaders: tuple[Vertex, ...] | list[Vertex] | None = None,
    config: SwapConfig | None = None,
    faults: FaultPlan | None = None,
    strategies: dict[Vertex, StrategySpec] | None = None,
    profiles: dict[Vertex, ReactionProfile] | None = None,
    asset_values: dict[Arc, int] | None = None,
) -> SwapResult:
    """One-call convenience wrapper: build a :class:`SwapSimulation`, run it."""
    return SwapSimulation(
        digraph,
        leaders=leaders,
        config=config,
        faults=faults,
        strategies=strategies,
        profiles=profiles,
        asset_values=asset_values,
    ).run()
