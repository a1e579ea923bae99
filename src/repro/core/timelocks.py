"""The single-leader protocol of §4.6: plain timeouts, no signatures.

When the swap digraph has a single leader ``v̂`` (so the follower
subdigraph is acyclic), hashkeys collapse to per-arc timeouts: arc
``(u, v)`` gets timeout ``(diam(D) + D(v, v̂) + 1)·Δ`` (Lemma 4.13), which
guarantees every conforming follower at least ``Δ`` between any leaving
arc's timeout and every entering arc's timeout.  Contracts shrink to the
classic hashed timelock contract (one hashlock, one deadline, no digital
signatures) — bench E15 quantifies the savings.

Figure 6's point is reproduced by :func:`assign_timeouts`: the assignment
exists iff the follower subdigraph is acyclic, i.e. the leader alone is a
feedback vertex set; otherwise :class:`TimeoutAssignmentError` explains
which cycle blocks it.

The module also provides the simulated party (:class:`SingleLeaderParty`)
and runner (:class:`SingleLeaderSimulation`) for this variant.  They are
the §4.5 escrow lifecycle (:class:`~repro.core.party.HTLCParty`,
:class:`~repro.core.protocol.HTLCSimulation`) with a plain secret in place
of hashkeys.  What stays independent of the hashkey machinery is what
bench E15 compares head-to-head: the contract
(:class:`SimpleTimelockContract`, whose claim, refund and release are
:class:`~repro.chain.contracts.EscrowContract`'s, so it states only its
one hashlock and deadline), the spec (:class:`SingleLeaderSpec`) and the
absence of signatures.  The runner additionally accepts an
arbitrary timeout assignment, which the *naive* baseline abuses to
demonstrate the attack that motivates hashkeys (see
:mod:`repro.baselines.naive_timelock`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.chain.assets import Asset
from repro.chain.blockchain import Blockchain
from repro.chain.contracts import EscrowContract
from repro.chain.ledger import Record, bools_size
from repro.chain.network import ChainNetwork
from repro.core.party import HTLCParty
from repro.core.protocol import HTLCSimulation, SwapResult, scenario_for
from repro.core.spec import resolve_start
from repro.crypto.hashing import hash_secret, matches
from repro.digraph.digraph import Arc, Digraph, Vertex
from repro.digraph.paths import (
    diameter,
    find_cycle,
    longest_path_length,
)
from repro.errors import (
    ContractError,
    ContractStateError,
    SimulationError,
    TimeoutAssignmentError,
)
from repro.sim import trace as tr
from repro.sim.faults import CrashPoint
from repro.sim.harness import derive_secret
from repro.sim.process import ReactionProfile
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Trace

# ---------------------------------------------------------------------------
# Timeout assignment (Lemma 4.13 / Figure 6)
# ---------------------------------------------------------------------------


def assign_timeouts(
    digraph: Digraph,
    leader: Vertex,
    delta: int,
    start_time: int = 0,
    exact_limit: int = 14,
) -> dict[Arc, int]:
    """§4.6's assignment: arc ``(u, v)`` expires at
    ``start + (diam(D) + D(v, v̂) + 1)·Δ``.

    Raises :class:`TimeoutAssignmentError` when the follower subdigraph is
    cyclic (Figure 6, right): no Δ-gapped assignment exists across a
    follower cycle.
    """
    if not digraph.has_vertex(leader):
        raise TimeoutAssignmentError(f"unknown leader {leader!r}")
    followers = digraph.remove_vertices([leader])
    cycle = find_cycle(followers)
    if cycle is not None:
        raise TimeoutAssignmentError(
            f"follower subdigraph has cycle {cycle}; timeouts cannot keep a "
            "Δ gap across a cycle (Fig. 6) — use the hashkey protocol with "
            "more leaders"
        )
    diam = diameter(digraph, exact_limit=exact_limit)
    timeouts: dict[Arc, int] = {}
    for (u, v) in digraph.arcs:
        distance = longest_path_length(digraph, v, leader, exact_limit=exact_limit)
        timeouts[(u, v)] = start_time + (diam + distance + 1) * delta
    return timeouts


def verify_gap_property(
    digraph: Digraph, leader: Vertex, timeouts: dict[Arc, int], delta: int
) -> bool:
    """Lemma 4.13's conclusion: for every follower ``v``, each entering
    arc's timeout exceeds each leaving arc's timeout by at least ``Δ``."""
    for v in digraph.vertices:
        if v == leader:
            continue
        entering = [timeouts[a] for a in digraph.in_arcs(v)]
        leaving = [timeouts[a] for a in digraph.out_arcs(v)]
        if not entering or not leaving:
            continue
        if min(entering) < max(leaving) + delta:
            return False
    return True


def equal_timeouts(
    digraph: Digraph, delta: int, start_time: int = 0, multiple: int | None = None
) -> dict[Arc, int]:
    """The *naive* assignment: every arc expires at the same moment.

    Exists for any digraph — and is exactly what the §1 discussion warns
    about: "If Carol's contract with Bob were to expire at the same time as
    Bob's contract with Alice, then Carol could reveal s ... at the very
    last moment, leaving Bob no time to collect".  Used by the baseline.
    """
    if multiple is None:
        multiple = 2 * diameter(digraph)
    deadline = start_time + multiple * delta
    return {arc: deadline for arc in digraph.arcs}


# ---------------------------------------------------------------------------
# The classic hashed timelock contract (single hashlock, single deadline)
# ---------------------------------------------------------------------------


class SimpleTimelockContract(EscrowContract):
    """The two-party HTLC of §4.1's opening: ``(h, t)`` plus an asset.

    ``unlock(secret)`` (counterparty, before ``t``) reveals the secret
    on-chain; ``claim`` transfers once unlocked; ``refund`` (party, at or
    after ``t``) returns the escrow while still locked.
    """

    CALLABLE = frozenset({"unlock", "refund", "claim"})

    def __init__(
        self,
        arc: Arc,
        asset: Asset,
        hashlock: bytes,
        timeout: int,
        start_time: int,
    ) -> None:
        super().__init__(arc, asset)
        self.hashlock = hashlock
        self.timeout = timeout
        self.start_time = start_time
        self.unlocked = False
        self.revealed_secret: bytes | None = None
        self.unlock_time: int | None = None

    def unlock(self, caller: str, now: int, secret: bytes) -> bool:
        self._admit("unlock", "counterparty", self.counterparty, caller)
        if self.unlocked:
            return True
        if now >= self.timeout:
            raise ContractStateError(f"timed out at {self.timeout} (now {now})")
        if not matches(self.hashlock, secret):
            raise ContractStateError("secret does not match hashlock")
        self.unlocked = True
        self.revealed_secret = secret
        self.unlock_time = now
        return True

    def _claim_refusal(self) -> str | None:
        return None if self.unlocked else "hashlock still locked"

    def _refund_refusal(self, now: int) -> str | None:
        if self.unlocked:
            return "hashlock already unlocked; refund impossible"
        if now < self.timeout:
            return f"not yet timed out (timeout {self.timeout}, now {now})"
        return None

    def state_view(self) -> dict[str, Any]:
        return {
            "arc": list(self.arc),
            "party": self.party,
            "counterparty": self.counterparty,
            "asset_id": self.asset.asset_id,
            "hashlock": self.hashlock.hex(),
            "timeout": self.timeout,
            "start_time": self.start_time,
            "unlocked": self.unlocked,
            "claimed": self.claimed,
            "refunded": self.refunded,
            "halted": self.is_halted,
        }

    def flags_size(self) -> int:
        return bools_size(self.unlocked, self.claimed, self.refunded, self.is_halted)

    def storage_size_bytes(self) -> int:
        """No digraph copy, no hashlock vector: O(1) storage per contract."""
        return 32 + 8 + 8 + 1 + self._arc_bytes()


# ---------------------------------------------------------------------------
# Published spec for the single-leader variant
# ---------------------------------------------------------------------------


@dataclass
class SingleLeaderSpec:
    """Common knowledge for a §4.6 swap: digraph, leader, hashlock, timeouts."""

    digraph: Digraph
    leader: Vertex
    hashlock: bytes
    timeouts: dict[Arc, int]
    start_time: int
    delta: int
    diam: int

    def __post_init__(self) -> None:
        missing = [a for a in self.digraph.arcs if a not in self.timeouts]
        if missing:
            raise TimeoutAssignmentError(f"arcs without timeouts: {missing}")

    @property
    def leaders(self) -> tuple[Vertex, ...]:
        """Duck-type compatibility with :class:`~repro.core.spec.SwapSpec`."""
        return (self.leader,)

    def phase_two_bound(self) -> int:
        """All triggers happen by the latest arc timeout."""
        return max(self.timeouts.values())

    def expected_contract_state(self, arc: Arc, asset_id: str) -> dict[str, Any]:
        head, tail = arc
        return {
            "arc": [head, tail],
            "party": head,
            "counterparty": tail,
            "asset_id": asset_id,
            "hashlock": self.hashlock.hex(),
            "timeout": self.timeouts[arc],
            "start_time": self.start_time,
        }


# ---------------------------------------------------------------------------
# Party behaviour (§4.6 = §4.5 with secrets instead of hashkeys)
# ---------------------------------------------------------------------------


class SingleLeaderParty(HTLCParty):
    """Conforming participant of the single-leader timeout protocol."""

    def __init__(
        self,
        name: Vertex,
        spec: SingleLeaderSpec,
        network: ChainNetwork,
        assets: dict[Arc, Asset],
        trace: Trace,
        scheduler: Scheduler,
        profile: ReactionProfile,
        secret: bytes | None = None,
    ) -> None:
        super().__init__(name, spec, network, assets, trace, scheduler, profile, secret)
        if self.is_leader and secret is None:
            raise SimulationError(f"leader {name} needs its secret")
        self.known_secret: bytes | None = secret if self.is_leader else None

    # -- Phase One --------------------------------------------------------------------

    def make_contract(self, arc: Arc) -> SimpleTimelockContract:
        return SimpleTimelockContract(
            arc=arc,
            asset=self.assets[arc],
            hashlock=self.spec.hashlock,
            timeout=self.spec.timeouts[arc],
            start_time=self.spec.start_time,
        )

    # -- observation dispatch -------------------------------------------------------------

    def on_chain_record(self, chain: Blockchain, record: Record, landed_at: int) -> None:
        # Unlike §4.5's party, this one keeps observing after abandoning;
        # its unlock path checks ``abandoned`` instead.
        if record.kind == "contract_published":
            self._on_contract_published(record)
        elif record.kind == "contract_call" and record.payload.get("ok"):
            if record.payload.get("method") == "unlock":
                self._on_unlock_observed(record)

    def _is_correct_contract(self, state: dict[str, Any], arc: Arc) -> bool:
        expected = self.spec.expected_contract_state(arc, self.assets[arc].asset_id)
        return all(state.get(k) == v for k, v in expected.items())

    def _on_entering_verified(self, arc: Arc) -> None:
        if self.known_secret is not None:
            self._schedule_unlock(arc)

    def _begin_phase_two(self) -> None:
        if self._maybe_crash(CrashPoint.BEFORE_PHASE_TWO):
            return
        self.phase_two_started = True
        self.trace.record(self.scheduler.now, tr.PHASE_STARTED, self.address, phase=2)
        for arc in self.entering:
            self._schedule_unlock(arc)

    def _on_unlock_observed(self, record: Record) -> None:
        state = record.payload.get("state", {})
        arc_value = state.get("arc")
        if not arc_value:
            return
        arc: Arc = (arc_value[0], arc_value[1])
        if arc not in self.leaving or self.known_secret is not None:
            return
        if self._maybe_crash(CrashPoint.BEFORE_PHASE_TWO):
            return
        secret = record.payload.get("args", {}).get("secret")
        if secret is None or not matches(self.spec.hashlock, secret):
            return
        self.known_secret = secret
        for arc_in in self.entering:
            if arc_in in self.incoming_contract_ids:
                self._schedule_unlock(arc_in)

    # -- Phase Two actions -----------------------------------------------------------------

    def _schedule_unlock(self, arc: Arc) -> None:
        if not self.should_unlock(arc):
            return
        self.wake_after(
            self.unlock_delay(arc),
            lambda a=arc: self._send_unlock(a),
        )

    def should_unlock(self, arc: Arc) -> bool:
        return True

    def unlock_delay(self, arc: Arc) -> int:
        return self.profile.action_delay

    def _send_unlock(self, arc: Arc) -> None:
        if self.abandoned or self.known_secret is None:
            return
        contract_id = self.incoming_contract_ids.get(arc)
        if contract_id is None or arc in self.claimed:
            return
        now = self.scheduler.now
        if now >= self.spec.timeouts[arc]:
            return  # rational parties do not submit doomed transactions
        chain = self.network.chain_for_arc(arc)
        contract = chain.contract(contract_id)
        if contract.is_halted:
            return
        try:
            if not getattr(contract, "unlocked", False):
                chain.call(contract_id, "unlock", self.address, now, {"secret": self.known_secret})
                self.trace.record(
                    now, tr.HASHLOCK_UNLOCKED, self.address, arc=list(arc), lock_index=0
                )
        except ContractError:
            return
        self.wake_after(
            self.profile.action_delay,
            lambda a=arc, cid=contract_id: self._send_claim(a, cid),
        )

    # -- refunds -------------------------------------------------------------------

    def refund_deadlines(self, arc: Arc) -> Iterable[int]:
        return (self.spec.timeouts[arc],)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


class SingleLeaderSimulation(HTLCSimulation):
    """Build and run a §4.6 single-leader, signature-free swap of a
    :class:`~repro.api.scenario.Scenario` (read by field).

    ``leader`` defaults to the first vertex that alone is a feedback
    vertex set; ``timeouts`` defaults to the safe §4.6 assignment, and
    baselines pass a different (broken) assignment to reproduce the
    attacks.
    """

    party_class = SingleLeaderParty

    def __init__(
        self,
        scenario: Any,
        leader: Vertex | None = None,
        strategies: dict[Vertex, Any] | None = None,
        timeouts: dict[Arc, int] | None = None,
    ) -> None:
        super().__init__(scenario, strategies)
        digraph = self.digraph
        start = resolve_start(scenario)

        if leader is None:
            leader = _find_single_leader(digraph)
        self.leader = leader

        if timeouts is None:
            timeouts = assign_timeouts(
                digraph, leader, scenario.delta, start, scenario.exact_limit
            )
        diam = diameter(digraph, exact_limit=scenario.exact_limit)
        self.secret = derive_secret("sl-secret", scenario.seed, leader)
        self.spec = SingleLeaderSpec(
            digraph=digraph,
            leader=leader,
            hashlock=hash_secret(self.secret),
            timeouts=timeouts,
            start_time=start,
            delta=scenario.delta,
            diam=diam,
        )
        self._wire_parties()

    def _party_kwargs(self, vertex: Vertex) -> dict[str, Any]:
        return {
            "name": vertex,
            "secret": self.secret if vertex == self.leader else None,
        }


def _find_single_leader(digraph: Digraph) -> Vertex:
    """A vertex that alone forms a feedback vertex set, if any."""
    from repro.digraph.feedback import is_feedback_vertex_set

    for vertex in digraph.vertices:
        if is_feedback_vertex_set(digraph, {vertex}):
            return vertex
    raise TimeoutAssignmentError(
        "no single vertex is a feedback vertex set; the §4.6 variant does "
        "not apply (use the general hashkey protocol)"
    )


def run_single_leader_swap(
    digraph: Digraph,
    leader: Vertex | None = None,
    *,
    strategies: dict[Vertex, Any] | None = None,
    timeouts: dict[Arc, int] | None = None,
    **fields: Any,
) -> SwapResult:
    """Convenience wrapper mirroring :func:`repro.core.protocol.run_swap`:
    ``fields`` are :class:`~repro.api.scenario.Scenario` fields."""
    return SingleLeaderSimulation(
        scenario_for("single-leader", digraph, **fields),
        leader=leader,
        strategies=strategies,
        timeouts=timeouts,
    ).run()
