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

    harness = SimulationHarness.for_config(digraph, config)
    harness.build_parties(
        lambda vertex, profile: MyParty(..., profile=profile))
    harness.install_faults(faults)
    harness.wire_observations()
    return harness, spec.start_time, partial(
        harness.collect, spec, config, conforming)
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.chain.blockchain import Blockchain
from repro.chain.ledger import Record
from repro.chain.network import BROADCAST_CHAIN_ID, ChainNetwork
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyDirectory, KeyPair
from repro.digraph.digraph import Arc, Digraph, Vertex
from repro.digraph.paths import is_strongly_connected
from repro.errors import NotStronglyConnectedError, SimulationError, TimingError
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


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------


class SimulationHarness:
    """Chains, assets, scheduler, trace, timing, wiring, and the run loop.

    One harness builds and runs exactly one simulation.  Construction
    validates the topology and provisions the substrate; the runner then
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
        connectivity_message: str | None = None,
    ) -> None:
        if not is_strongly_connected(digraph):
            raise NotStronglyConnectedError(
                connectivity_message
                or "swap digraphs must be strongly connected (Theorem 3.5)"
            )
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
        self._chain_lag = self._resolve_chain_delays(self.chain_delays)

        self.parties: dict[Vertex, Any] = {}
        self._ran = False

    def _resolve_chain_delays(self, delays: Mapping[str, int]) -> dict[str, int]:
        """Map ``"head->tail"``/``"broadcast"`` keys to chain ids."""
        from repro.chain.network import chain_id_for_arc

        known_arcs = set(self.digraph.arcs)
        lag: dict[str, int] = {}
        for key, delay in delays.items():
            if not isinstance(delay, int) or delay < 0:
                raise SimulationError(
                    f"chain delay for {key!r} must be a non-negative tick "
                    f"count, got {delay!r}"
                )
            if key == BROADCAST_CHAIN_ID:
                lag[BROADCAST_CHAIN_ID] = delay
                continue
            head, sep, tail = key.partition("->")
            if not sep or (head, tail) not in known_arcs:
                raise SimulationError(
                    f"chain delay key {key!r} names no arc of the topology; "
                    f"use 'head->tail' for one of {sorted(known_arcs)} "
                    f"or 'broadcast'"
                )
            lag[chain_id_for_arc((head, tail))] = delay
        return lag

    @classmethod
    def for_config(
        cls, digraph: Digraph, config: Any, **kwargs: Any
    ) -> "SimulationHarness":
        """Build from anything shaped like
        :class:`repro.core.protocol.SwapConfig` (delta, fractions, seed,
        and an optional ``timing`` spec)."""
        return cls(
            digraph,
            delta=config.delta,
            reaction_fraction=config.reaction_fraction,
            action_fraction=config.action_fraction,
            seed=config.seed,
            timing=getattr(config, "timing", None),
            chain_delays=getattr(config, "chain_delays", None),
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
                when = crash.at_time

                def crash_now(p: Any = party, t: int = when) -> None:
                    if not p.is_halted:
                        p.halt()
                        self.trace.record(
                            t, tr.PARTY_CRASHED, p.address, at_time=t
                        )

                self.scheduler.at(when, crash_now)

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
        relevant: dict[str, list[Any]] = {}
        for arc in self.digraph.arcs:
            chain = self.network.chain_for_arc(arc)
            head, tail = arc
            relevant.setdefault(chain.chain_id, []).extend(
                [self.parties[head], self.parties[tail], *extra]
            )
        if broadcast_to_all:
            relevant[BROADCAST_CHAIN_ID] = list(self.parties.values())
        chain_lag = self._chain_lag

        def on_record(chain: Blockchain, record: Record, now: int) -> None:
            lag = chain_lag.get(chain.chain_id, 0)
            for watcher in relevant.get(chain.chain_id, ()):
                if watcher.is_halted:
                    continue
                watcher.wake_after(
                    watcher.profile.reaction_delay + lag,
                    partial(watcher.on_chain_record, chain, record, now),
                )

        self.network.subscribe_all(on_record)

    # -- running ------------------------------------------------------------------------

    def begin(self, start_time: int) -> None:
        """Schedule every party's ``start`` at ``start_time`` without
        draining the queue — the execution-session layer then drives the
        scheduler itself (``step()``-wise or wholesale).  One-shot."""
        if self._ran:
            raise SimulationError("a SimulationHarness instance runs once")
        self._ran = True
        for party in self.parties.values():
            self.scheduler.at(start_time, lambda p=party: None if p.is_halted else p.start())

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
        config: Any,
        conforming: frozenset[Vertex],
        events_fired: int,
    ):
        """Classify final chain state into a
        :class:`~repro.core.protocol.SwapResult` (Fig. 3 outcomes plus
        the byte/time metrics the complexity theorems count)."""
        from repro.core.protocol import collect_result

        return collect_result(
            spec=spec,
            config=config,
            network=self.network,
            trace=self.trace,
            parties=self.parties,
            conforming=conforming,
            events_fired=events_fired,
        )
