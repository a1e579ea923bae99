"""Baseline B2: sequential trusted transfers (no atomicity at all).

Before atomic swaps, a multi-party exchange cycle was executed the obvious
way: somebody goes first, and each party passes its asset on once it has
been paid.  There are no contracts, no hashlocks and no timeouts — just
plain recorded transfers — so the protocol is as cheap as possible and
works perfectly *when everyone is honest*.

The failure mode is structural: whoever has paid but not yet been paid is
exposed.  A defector who receives and then stops strands the first mover
(and anyone else upstream) Underwater.  Bench E17 uses this baseline to
quantify what the swap contracts actually buy.

The implementation runs on the same chain substrate and discrete-event
scheduler as the real protocol so byte counts and latencies are directly
comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.chain.blockchain import Blockchain
from repro.chain.ledger import Record
from repro.chain.network import ChainNetwork
from repro.core.spec import resolve_start
from repro.digraph.digraph import Arc, Digraph, Vertex
from repro.errors import AssetError, SimulationError
from repro.sim import trace as tr
from repro.sim.harness import SimulationHarness
from repro.sim.process import Process, ReactionProfile
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Trace


@dataclass
class BaselineSpec:
    """Duck-typed spec so baselines reuse :func:`collect_result`."""

    digraph: Digraph
    leaders: tuple[Vertex, ...]
    start_time: int
    delta: int
    diam: int

    def phase_two_bound(self) -> int:
        # No protocol-level bound exists for a trust-based exchange; use
        # one round-trip per arc as the generous yardstick.
        return self.start_time + self.digraph.arc_count() * self.delta


class SequentialParty(Process):
    """Pays its successor(s) once every entering transfer has arrived.

    The ``first_mover`` pays unconditionally (someone has to trust).
    Defectors accept payment and never pay.
    """

    def __init__(
        self,
        name: Vertex,
        digraph: Digraph,
        network: ChainNetwork,
        trace: Trace,
        scheduler: Scheduler,
        profile: ReactionProfile,
        is_first_mover: bool,
        defects: bool,
    ) -> None:
        super().__init__(name, scheduler, profile)
        self.address = name
        self.digraph = digraph
        self.network = network
        self.trace = trace
        self.is_first_mover = is_first_mover
        self.defects = defects
        self.entering = digraph.in_arcs(name)
        self.leaving = digraph.out_arcs(name)
        self.received: set[Arc] = set()
        self.paid = False

    def start(self) -> None:
        if self.is_first_mover and not self.defects:
            self.wake_after(self.profile.action_delay, self._pay)

    def on_chain_record(self, chain: Blockchain, record: Record, landed_at: int) -> None:
        if record.kind != "asset_transfer":
            return
        payload = record.payload
        if payload.get("to") != self.address:
            return
        for arc in self.entering:
            head, tail = arc
            if payload.get("asset_id") == f"asset@{head}->{tail}":
                self.received.add(arc)
        if len(self.received) == len(self.entering) and not self.paid:
            if self.defects:
                return  # take the money and run
            self.wake_after(self.profile.action_delay, self._pay)

    def _pay(self) -> None:
        if self.paid:
            return
        self.paid = True
        now = self.scheduler.now
        for arc in self.leaving:
            head, tail = arc
            chain = self.network.chain_for_arc(arc)
            try:
                chain.transfer_asset(f"asset@{head}->{tail}", self.address, tail, now)
            except AssetError:
                continue
            self.trace.record(now, tr.ARC_TRIGGERED, self.address, arc=list(arc))


def _prepare_sequential_trust_swap(scenario: Any):
    """``(harness, start_time, finalize)``: the assembled trust-chain
    simulation of ``scenario`` for the execution-session layer.  Its
    ``params`` may name the ``first_mover`` (default: the first vertex)
    and the ``defectors``, who take the money and run."""
    digraph = scenario.digraph()
    defectors = set(scenario.params.get("defectors") or ())
    harness = SimulationHarness.for_config(
        digraph,
        scenario,
        include_broadcast=False,
    )
    for v in defectors:
        if not digraph.has_vertex(v):
            raise SimulationError(f"unknown defector {v!r}")
    first_mover = scenario.params.get("first_mover")
    if first_mover is None:
        first_mover = digraph.vertices[0]

    harness.build_parties(
        lambda vertex, profile: SequentialParty(
            name=vertex,
            digraph=digraph,
            network=harness.network,
            trace=harness.trace,
            scheduler=harness.scheduler,
            profile=profile,
            is_first_mover=vertex == first_mover,
            defects=vertex in defectors,
        )
    )
    harness.wire_observations()

    start = resolve_start(scenario)
    spec = BaselineSpec(
        digraph=digraph,
        leaders=(first_mover,),
        start_time=start,
        delta=scenario.delta,
        diam=len(digraph.vertices) - 1,
    )
    conforming = frozenset(v for v in digraph.vertices if v not in defectors)
    return harness, start, partial(harness.collect, spec, scenario, conforming)
