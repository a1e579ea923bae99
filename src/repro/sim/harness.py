"""The shared simulation harness every protocol runner builds on.

Every runner needs the same assembly: construct a
:class:`~repro.chain.network.ChainNetwork` with one asset per arc, build
one party process per vertex, subscribe chain records as delayed party
observations, install crash faults, schedule every party's ``start`` at
the protocol starting time, and run the discrete-event scheduler to
quiescence.  :class:`SimulationHarness` owns all of that once, so a
protocol runner is reduced to what actually differs between protocols:
the published spec, the party class, and the contract machinery.  The
§4.5 and §4.6 runners share one more layer on top of it,
:class:`repro.core.protocol.HTLCSimulation`.

The harness is also where the :mod:`repro.sim.timing` models plug in:
party processes receive per-vertex :class:`ReactionProfile`\\ s from the
scenario's :class:`~repro.sim.timing.TimingModel` instead of one
hard-coded profile, making the paper's Δ assumption a first-class,
sweepable scenario axis.

Typical runner shape — assemble, then hand ``(harness, start_time,
finalize)`` to the execution-session layer (:mod:`repro.api.execution`),
which drives the scheduler and calls ``finalize(events_fired)`` once the
run quiesces (a direct run is ``finalize(harness.run_to_quiescence(T))``)::

    harness = SimulationHarness.for_config(scenario.digraph(), scenario)
    harness.build_parties(
        lambda vertex, profile: MyParty(..., profile=profile))
    harness.install_faults(scenario.faults)
    harness.wire_observations()
    return harness, spec.start_time, partial(
        harness.collect, spec, scenario, conforming)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping
from weakref import WeakMethod

from repro.chain.blockchain import Blockchain
from repro.chain.ledger import Record
from repro.chain.network import BROADCAST_CHAIN_ID, ChainNetwork, chain_id_for_arc
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyDirectory, KeyPair
from repro.digraph.digraph import Arc, Digraph, Vertex
from repro.errors import SimulationError, TimingError
from repro.sim import trace as tr
from repro.sim.process import Process, ReactionProfile
from repro.sim.scheduler import Scheduler
from repro.sim.timing import TimingModel, resolve_timing
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.chain.assets import Asset
    from repro.sim.faults import FaultPlan


# ---------------------------------------------------------------------------
# deterministic key/secret provisioning (shared by the protocol runners)
# ---------------------------------------------------------------------------


def derive_secret(tag: str, seed: int, name: str) -> bytes:
    """A 32-byte secret deterministic in ``(tag, seed, name)``."""
    return sha256(f"{tag}:{seed}:{name}".encode())


def provision_keypairs(
    scheme: Any, vertices: Iterable[Vertex], seed: int
) -> tuple[KeyDirectory, dict[Vertex, KeyPair]]:
    """One registered keypair per vertex, deterministic in the seed."""
    directory = KeyDirectory()
    keypairs: dict[Vertex, KeyPair] = {}
    for vertex in vertices:
        key_seed = sha256(f"keyseed:{seed}:{vertex}".encode())
        keypair = scheme.keygen(seed=key_seed).renamed(vertex)
        directory.register(keypair)
        keypairs[vertex] = keypair
    return directory, keypairs


def _held_weakly(method: Callable[..., None]) -> Callable[..., None]:
    """A callback that calls ``method`` while its object lives, holding
    the object weakly.

    The chains hold the harness's record observer, the harness reaches
    the parties, and the parties reach the chains: a strong hold would
    make every run one reference cycle, which only the cycle collector
    frees.  Once the harness is gone the callback does nothing.
    """
    ref = WeakMethod(method)

    def callback(*args: Any) -> None:
        bound = ref()
        if bound is not None:
            bound(*args)

    return callback


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------


class SimulationHarness:
    """Chains, assets, scheduler, trace, timing, wiring, and the run loop.

    One harness builds and runs exactly one simulation.  Construction
    provisions the substrate for a scenario the engine (or direct runner)
    has already checked against :mod:`repro.analysis.structure`'s rules
    — including its ``chain_delays`` labels; the runner then
    calls :meth:`build_parties`, :meth:`install_faults`,
    :meth:`wire_observations`, and finally :meth:`run_to_quiescence` /
    :meth:`collect`.
    """

    def __init__(
        self,
        digraph: Digraph,
        *,
        delta: int,
        reaction_fraction: float,
        action_fraction: float,
        seed: int = 0,
        timing: Any = None,
        chain_delays: Mapping[str, int] | None = None,
        include_broadcast: bool = False,
        asset_values: Mapping[Arc, int] | None = None,
    ) -> None:
        self.digraph = digraph
        self.delta = delta
        self.seed = seed
        self.reaction_fraction = reaction_fraction
        self.action_fraction = action_fraction
        self.timing: TimingModel = resolve_timing(timing)

        self.network = ChainNetwork.for_digraph(
            digraph, include_broadcast=include_broadcast
        )
        value_of = None
        if asset_values is not None:
            value_of = lambda arc: asset_values.get(arc, 1)  # noqa: E731
        self.assets: dict[Arc, "Asset"] = self.network.register_arc_assets(
            digraph, now=0, value_of=value_of
        )

        self.scheduler = Scheduler()
        self.trace = Trace()

        #: The uniform baseline profile — used for processes that are not
        #: digraph vertices (e.g. the 2PC coordinator).
        self.base_profile = ReactionProfile.fractions(
            delta, reaction_fraction, action_fraction
        )
        self._profiles = self.timing.profiles(
            digraph.vertices,
            delta=delta,
            reaction_fraction=reaction_fraction,
            action_fraction=action_fraction,
            seed=seed,
        )

        #: Per-chain confirmation lag (ticks) added to every observation
        #: of that chain's records — the *chain-side* Δ, as opposed to
        #: the party-side latencies timing models draw.  Keys are arc
        #: labels (``"head->tail"``) or ``"broadcast"``.
        self.chain_delays: dict[str, int] = dict(chain_delays or {})
        self._chain_lag = {
            key if key == BROADCAST_CHAIN_ID else chain_id_for_arc(key.split("->", 1)): delay
            for key, delay in self.chain_delays.items()
        }

        self.parties: dict[Vertex, Any] = {}
        #: chain id -> the processes that observe its records, in
        #: notification order (filled by :meth:`wire_observations`).
        self._watchers: dict[str, list[Any]] = {}
        self._ran = False

    @classmethod
    def for_config(
        cls, digraph: Digraph, scenario: Any, **kwargs: Any
    ) -> "SimulationHarness":
        """Build from a :class:`~repro.api.scenario.Scenario` (read by
        field: delta, fractions, seed, timing, chain_delays)."""
        return cls(
            digraph,
            delta=scenario.delta,
            reaction_fraction=scenario.reaction_fraction,
            action_fraction=scenario.action_fraction,
            seed=scenario.seed,
            timing=scenario.timing,
            chain_delays=scenario.chain_delays,
            **kwargs,
        )

    # -- timing ---------------------------------------------------------------

    def profile_for(self, vertex: Vertex) -> ReactionProfile:
        """The timing model's profile for one party (baseline if the
        vertex is unknown to the model)."""
        return self._profiles.get(vertex, self.base_profile)

    # -- party construction ------------------------------------------------------

    def build_parties(
        self, factory: Callable[[Vertex, ReactionProfile], Any]
    ) -> dict[Vertex, Any]:
        """One party per vertex (in digraph order), profiles applied."""
        for vertex in self.digraph.vertices:
            self.parties[vertex] = factory(vertex, self.profile_for(vertex))
        return self.parties

    # -- fault installation --------------------------------------------------------

    def install_faults(self, faults: "FaultPlan") -> None:
        """Attach crash plans and schedule absolute-time crash events.

        Milestone crashes fire inside the party's own ``_maybe_crash``
        hooks; only ``at_time`` crashes need scheduler events.
        """
        for vertex, crash in faults.crashes.items():
            party = self.parties[vertex]
            party.crash_plan = crash
            if crash.at_time is not None:
                self.scheduler.wake(
                    party, crash.at_time - self.scheduler.now, self._crash, (party,)
                )

    def _crash(self, party: Any) -> None:
        """An ``at_time`` crash firing (its entry is skipped if the party
        already halted)."""
        party.halt()
        now = self.scheduler.now
        self.trace.record(now, tr.PARTY_CRASHED, party.address, at_time=now)

    # -- observation wiring -----------------------------------------------------------

    def wire_observations(
        self,
        extra_watchers: Iterable[Process] = (),
        broadcast_to_all: bool = False,
    ) -> None:
        """Chain records become delayed observations for relevant parties.

        Each arc's chain notifies the arc's two endpoint parties plus
        every ``extra_watcher`` (e.g. a trusted coordinator);
        ``broadcast_to_all`` additionally routes the broadcast chain to
        every party.  Observation latency is each watcher's own
        ``reaction_delay`` — which is exactly where a timing model's
        per-party draws enter the event loop — plus the chain's
        configured confirmation lag (``chain_delays``): a record on a
        slow chain reaches *every* watcher later, modelling per-chain
        confirmation depth rather than per-party sluggishness.
        """
        extra = list(extra_watchers)
        watchers = self._watchers
        for arc in self.digraph.arcs:
            chain = self.network.chain_for_arc(arc)
            head, tail = arc
            watchers.setdefault(chain.chain_id, []).extend(
                [self.parties[head], self.parties[tail], *extra]
            )
        if broadcast_to_all:
            watchers[BROADCAST_CHAIN_ID] = list(self.parties.values())
        self.network.subscribe_all(_held_weakly(self._on_record))

    def _on_record(self, chain: Blockchain, record: Record, now: int) -> None:
        """Queue ``watcher.on_chain_record(chain, record, now)`` for each
        live watcher of ``chain``, one reaction delay plus the chain's
        lag from now."""
        lag = self._chain_lag.get(chain.chain_id, 0)
        wake = self.scheduler.wake
        for watcher in self._watchers.get(chain.chain_id, ()):
            if watcher.is_halted:
                continue
            wake(
                watcher,
                watcher.profile.reaction_delay + lag,
                watcher.on_chain_record,
                (chain, record, now),
            )

    # -- running ------------------------------------------------------------------------

    def begin(self, start_time: int) -> None:
        """Schedule every party's ``start`` at ``start_time`` without
        draining the queue — the execution-session layer then drives the
        scheduler itself (``step()``-wise or wholesale).  One-shot."""
        if self._ran:
            raise SimulationError("a SimulationHarness instance runs once")
        self._ran = True
        delay = start_time - self.scheduler.now
        for party in self.parties.values():
            self.scheduler.wake(party, delay, party.start, ())

    def run_to_quiescence(self, start_time: int) -> int:
        """Schedule every party's ``start`` at ``start_time`` and drain
        the event queue; returns the number of events fired."""
        if self.timing.requires_session:
            raise TimingError(
                f"timing model {self.timing.kind!r} intervenes at protocol "
                "milestones and needs the execution-session API; run the "
                "scenario through Engine.open()/Engine.run() instead of a "
                "direct simulation runner"
            )
        self.begin(start_time)
        return self.scheduler.run()

    # -- metrics ------------------------------------------------------------------------

    def collect(
        self,
        spec: Any,
        scenario: Any,
        conforming: frozenset[Vertex],
        events_fired: int,
    ):
        """Classify final chain state into a
        :class:`~repro.core.protocol.SwapResult` (Fig. 3 outcomes plus
        the byte/time metrics the complexity theorems count)."""
        from repro.core.protocol import collect_result

        return collect_result(
            spec=spec,
            scenario=scenario,
            network=self.network,
            trace=self.trace,
            parties=self.parties,
            conforming=conforming,
            events_fired=events_fired,
        )
