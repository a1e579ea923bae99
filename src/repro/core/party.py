"""Conforming party behaviour: the §4.5 protocol as a state machine.

A :class:`SwapParty` is a simulated process that follows the paper's
protocol exactly:

**Phase One** (contract propagation, the lazy pebble game on ``D``):
leaders publish a :class:`~repro.core.contract.SwapContract` on every
leaving arc at the starting time; followers wait until *correct* contracts
exist on all entering arcs, then publish on all leaving arcs.  Any
incorrect contract causes the party to abandon the protocol (never
publishing or unlocking), while still refunding whatever it already
escrowed once timeouts pass.

**Phase Two** (hashkey propagation, the eager pebble game on ``D^T``):
once all of a leader's entering arcs carry contracts, the leader unlocks
them with its degenerate hashkey ``(s, (v_i), sig(s, v_i))``.  The first
time any party observes hashlock ``i`` unlocked on a *leaving* arc with
hashkey ``(s, p, σ)``, it extends the key to ``(s, v+p, sig(σ, v))`` and
unlocks all of its entering arcs.  Fully unlocked entering contracts are
claimed; leaving contracts whose hashlocks time out are refunded.

The escrow lifecycle lives in :class:`HTLCParty`, which §4.6's
:class:`~repro.core.timelocks.SingleLeaderParty` shares.

Deviating behaviours subclass this and override the small hook methods —
see :mod:`repro.core.strategies`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.chain.assets import Asset
from repro.chain.blockchain import Blockchain
from repro.chain.contracts import EscrowContract
from repro.chain.ledger import Record
from repro.chain.network import BROADCAST_CHAIN_ID, ChainNetwork
from repro.core.contract import SwapContract, is_correct_contract_state
from repro.core.hashkey import Hashkey
from repro.core.spec import SwapSpec
from repro.crypto.keys import KeyPair
from repro.crypto.sigchain import SignatureChain
from repro.crypto.signatures import SignatureScheme
from repro.digraph.digraph import Arc
from repro.errors import AssetError, ContractError, InvalidHashkeyError
from repro.sim import trace as tr
from repro.sim.faults import Crash, CrashPoint
from repro.sim.process import Process, ReactionProfile
from repro.sim.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.trace import Trace


class HTLCParty(Process):
    """The escrow lifecycle both hashed-timelock protocols share.

    §4.6 is §4.5 with one plain secret in place of hashkeys, so the two
    parties are one automaton that differs in a few transitions: which
    contract is published (:meth:`make_contract`), how an entering
    contract is checked (:meth:`_is_correct_contract`), what a verified
    entering arc triggers (:meth:`_on_entering_verified`), how the leader
    opens Phase Two (:meth:`_begin_phase_two`), and when refunds are
    watched (:meth:`refund_deadlines`).  Everything else — crash hooks,
    start, publication, the Phase One follower step, claim and refund —
    lives here once.  Whether a claim or refund would succeed is not the
    party's to restate: it reads the contract's own
    :meth:`~repro.chain.contracts.EscrowContract.claimable` and
    :meth:`~repro.chain.contracts.EscrowContract.refundable`.  Subclasses
    supply their own unlock paths and ``on_chain_record``.
    """

    def __init__(
        self,
        name: str,
        spec: Any,
        network: ChainNetwork,
        assets: dict[Arc, Asset],
        trace: "Trace",
        scheduler: Scheduler,
        profile: ReactionProfile,
        secret: bytes | None = None,
    ) -> None:
        super().__init__(name, scheduler, profile)
        self.address = name
        self.spec = spec
        self.network = network
        self.assets = assets
        self.trace = trace
        self.secret = secret
        self.is_leader = name in spec.leaders
        self.entering: tuple[Arc, ...] = spec.digraph.in_arcs(name)
        self.leaving: tuple[Arc, ...] = spec.digraph.out_arcs(name)

        # Protocol state.
        self.verified_incoming: set[Arc] = set()
        self.incoming_contract_ids: dict[Arc, str] = {}
        self.outgoing_contract_ids: dict[Arc, str] = {}
        self.claimed: set[Arc] = set()
        self.refunded: set[Arc] = set()
        self.abandoned = False
        self.phase_two_started = False
        self.published = False
        self.crash_plan: Crash | None = None

    # -- crash hooks ----------------------------------------------------------------

    def _maybe_crash(self, point: CrashPoint) -> bool:
        """Halt here if the fault plan says so; True when crashed."""
        if self.crash_plan is not None and self.crash_plan.at_point is point:
            self.halt()
            self.trace.record(
                self.scheduler.now, tr.PARTY_CRASHED, self.address, point=point.value
            )
            return True
        return False

    # -- protocol entry point ---------------------------------------------------------

    def start(self) -> None:
        """Called at the spec's starting time ``T``.

        Leaders publish *at* ``T`` with no extra action delay: the spec was
        published at least Δ earlier (§4.2), so a conforming leader has its
        contracts prepared — this matches the pebble-game model, where the
        round-0 pebbles are placed when the game starts, and it is what
        keeps the strict Fig. 5 deadlines live on diameter-1 digraphs.
        """
        if self._maybe_crash(CrashPoint.AT_START):
            return
        if self.is_leader:
            self._publish_outgoing()
        # Followers simply wait for contracts on all entering arcs.

    # -- Phase One: publication ----------------------------------------------------------

    def _publish_outgoing(self) -> None:
        """Publish a correct swap contract on every leaving arc (one action)."""
        if self.abandoned or self.published:
            return
        self.published = True
        now = self.scheduler.now
        for arc in self.leaving:
            if not self.should_publish(arc):
                continue
            contract = self.make_contract(arc)
            chain = self.network.chain_for_arc(arc)
            try:
                contract_id = chain.publish_contract(contract, self.address, now)
            except (AssetError, ContractError) as error:
                self.trace.record(
                    now, tr.CONTRACT_REJECTED, self.address, arc=list(arc), error=str(error)
                )
                continue
            self.outgoing_contract_ids[arc] = contract_id
            self.trace.record(
                now, tr.CONTRACT_PUBLISHED, self.address, arc=list(arc), contract_id=contract_id
            )
            self._schedule_refund_watches(arc, contract_id)
        self._maybe_crash(CrashPoint.AFTER_PHASE_ONE_PUBLISH)

    def should_publish(self, arc: Arc) -> bool:
        """Strategy hook: conforming parties publish on every leaving arc."""
        return True

    def make_contract(self, arc: Arc) -> EscrowContract:
        raise NotImplementedError

    # -- Phase One: observing entering contracts -------------------------------------------

    def _on_contract_published(self, record: Record) -> None:
        payload = record.payload
        state = payload.get("state", {})
        arc_value = state.get("arc")
        if not arc_value:
            return
        arc: Arc = (arc_value[0], arc_value[1])
        if arc not in self.entering or arc in self.incoming_contract_ids:
            return
        if not self._is_correct_contract(state, arc):
            # §4.5: "verifies that contract is a correct swap contract, and
            # abandons the protocol otherwise".
            self.abandoned = True
            self.trace.record(
                self.scheduler.now,
                tr.PROTOCOL_ABANDONED,
                self.address,
                arc=list(arc),
                reason="incorrect contract",
            )
            return
        self.incoming_contract_ids[arc] = payload["contract_id"]
        self.verified_incoming.add(arc)
        self._on_entering_verified(arc)
        self._maybe_advance_phase()

    def _is_correct_contract(self, state: dict[str, Any], arc: Arc) -> bool:
        raise NotImplementedError

    def _on_entering_verified(self, arc: Arc) -> None:
        raise NotImplementedError

    def _maybe_advance_phase(self) -> None:
        if self.abandoned:
            return
        if len(self.verified_incoming) != len(self.entering):
            return
        if self.is_leader:
            if not self.phase_two_started:
                self._begin_phase_two()
        elif not self.published:
            # Phase One, follower step 2: all entering arcs verified.
            self.wake_after(self.profile.action_delay, self._publish_outgoing)

    def _begin_phase_two(self) -> None:
        raise NotImplementedError

    # -- claims ----------------------------------------------------------------------

    def _send_claim(self, arc: Arc, contract_id: str) -> None:
        if arc in self.claimed:
            return
        now = self.scheduler.now
        chain = self.network.chain_for_arc(arc)
        if not chain.contract(contract_id).claimable():
            return
        try:
            chain.call(contract_id, "claim", self.address, now)
        except ContractError:
            return
        self.claimed.add(arc)
        self.trace.record(now, tr.ARC_TRIGGERED, self.address, arc=list(arc))

    # -- refunds -------------------------------------------------------------------

    def _schedule_refund_watches(self, arc: Arc, contract_id: str) -> None:
        """Wake at each refund deadline to refund if still locked."""
        for deadline in self.refund_deadlines(arc):
            delay = max(0, deadline - self.scheduler.now) + self.profile.action_delay
            self.wake_after(
                delay,
                lambda a=arc, cid=contract_id: self._try_refund(a, cid),
            )

    def refund_deadlines(self, arc: Arc) -> Iterable[int]:
        """Ascending times after which a leaving arc may be refundable."""
        raise NotImplementedError

    def _try_refund(self, arc: Arc, contract_id: str) -> None:
        if arc in self.refunded:
            return
        now = self.scheduler.now
        chain = self.network.chain_for_arc(arc)
        if not chain.contract(contract_id).refundable(now):
            return
        try:
            chain.call(contract_id, "refund", self.address, now)
        except ContractError:
            return
        self.refunded.add(arc)
        self.trace.record(now, tr.ARC_REFUNDED, self.address, arc=list(arc))


class SwapParty(HTLCParty):
    """A conforming participant (leader or follower, per the spec)."""

    def __init__(
        self,
        keypair: KeyPair,
        spec: SwapSpec,
        network: ChainNetwork,
        assets: dict[Arc, Asset],
        trace: "Trace",
        scheduler: Scheduler,
        profile: ReactionProfile,
        secret: bytes | None = None,
        use_broadcast: bool = False,
    ) -> None:
        super().__init__(
            keypair.address, spec, network, assets, trace, scheduler, profile, secret
        )
        if self.is_leader and secret is None:
            raise ContractError(f"leader {self.address} needs its secret")
        self.keypair = keypair
        self.use_broadcast = use_broadcast
        self.known_hashkeys: dict[int, Hashkey] = {}
        self.unlocked_incoming: dict[Arc, set[int]] = {arc: set() for arc in self.entering}
        self._unlock_calls_sent = 0

    # -- scheme helpers -----------------------------------------------------------

    @property
    def scheme(self) -> SignatureScheme:
        return self.spec.schemes[self.keypair.scheme]

    # -- Phase One ---------------------------------------------------------------------

    def make_contract(self, arc: Arc) -> SwapContract:
        """Strategy hook: conforming parties build spec-correct contracts."""
        return SwapContract(self.spec, arc, self.assets[arc])

    # -- observation dispatch (wired by the runner) -----------------------------------------

    def on_chain_record(self, chain: Blockchain, record: Record, landed_at: int) -> None:
        """Handle one observed ledger record (already delayed by the runner)."""
        if self.abandoned and record.kind != "contract_published":
            return
        if record.kind == "contract_published":
            self._on_contract_published(record)
        elif record.kind == "contract_call" and record.payload.get("ok"):
            method = record.payload.get("method")
            if method == "unlock":
                self._on_unlock_observed(record)
        elif record.kind == "secret_broadcast" and chain.chain_id == BROADCAST_CHAIN_ID:
            self._on_secret_broadcast(record)

    def _is_correct_contract(self, state: dict[str, Any], arc: Arc) -> bool:
        return is_correct_contract_state(
            state, self.spec, arc, self.assets[arc].asset_id
        )

    def _on_entering_verified(self, arc: Arc) -> None:
        # A late-arriving contract can still be unlocked with known keys.
        for lock_index in list(self.known_hashkeys):
            self._schedule_unlocks(lock_index, only_arc=arc)

    # -- Phase Two: secret dissemination ----------------------------------------------------

    def _begin_phase_two(self) -> None:
        if self._maybe_crash(CrashPoint.BEFORE_PHASE_TWO):
            return
        self.phase_two_started = True
        assert self.secret is not None
        lock_index = self.spec.lock_index_of(self.address)
        hashkey = Hashkey.originate(lock_index, self.secret, self.keypair, self.scheme)
        self.known_hashkeys[lock_index] = hashkey
        self.trace.record(
            self.scheduler.now, tr.PHASE_STARTED, self.address, phase=2, lock_index=lock_index
        )
        if self.use_broadcast:
            self.wake_after(
                self.profile.action_delay,
                lambda: self._broadcast_secret(hashkey),
            )
        self._schedule_unlocks(lock_index)

    def _broadcast_secret(self, hashkey: Hashkey) -> None:
        """§4.5 optimisation: publish the secret on the shared chain."""
        if not self.network.include_broadcast:
            return
        now = self.scheduler.now
        chain = self.network.broadcast_chain
        chain.publish_data(
            kind="secret_broadcast",
            author=self.address,
            payload={
                "lock_index": hashkey.lock_index,
                "secret": hashkey.secret,
                "leader": self.address,
                "base_signature": hashkey.sig_chain.layers[-1],
            },
            now=now,
        )
        self.trace.record(
            now, tr.SECRET_BROADCAST, self.address, lock_index=hashkey.lock_index
        )

    def _on_unlock_observed(self, record: Record) -> None:
        payload = record.payload
        state = payload.get("state", {})
        arc_value = state.get("arc")
        if not arc_value:
            return
        arc: Arc = (arc_value[0], arc_value[1])
        if arc in self.entering:
            # Our own unlock landed; claim handling is done at call time.
            return
        if arc not in self.leaving:
            return
        args = payload.get("args", {})
        try:
            observed = Hashkey.from_args(args)
        except (KeyError, InvalidHashkeyError):
            return
        self._learn_hashkey(observed)

    def _on_secret_broadcast(self, record: Record) -> None:
        if not self.use_broadcast:
            return
        payload = record.payload
        lock_index = payload.get("lock_index")
        if lock_index is None or lock_index in self.known_hashkeys:
            return
        leader = payload.get("leader")
        if leader != self.spec.leader_of_lock(lock_index):
            return
        if leader == self.address:
            return
        base = Hashkey(
            lock_index=lock_index,
            secret=payload["secret"],
            path=(leader,),
            sig_chain=SignatureChain(layers=(payload["base_signature"],)),
        )
        # The logical follower->leader arc (§4.5): extend once and use it.
        try:
            extended = base.extend(self.keypair, self.scheme)
        except InvalidHashkeyError:
            return
        self.known_hashkeys[lock_index] = extended
        self._schedule_unlocks(lock_index)

    def _learn_hashkey(self, observed: Hashkey) -> None:
        """§4.5: first observation of an unlocked leaving-arc hashlock."""
        lock_index = observed.lock_index
        if lock_index in self.known_hashkeys:
            return
        if self._maybe_crash(CrashPoint.BEFORE_PHASE_TWO):
            return
        if self.address in observed.path:
            # Lemma 4.8's second case: we already signed this key earlier,
            # so it must already be in known_hashkeys; nothing to do.
            return
        extended = observed.extend(self.keypair, self.scheme)
        self.known_hashkeys[lock_index] = extended
        self._schedule_unlocks(lock_index)

    def _schedule_unlocks(self, lock_index: int, only_arc: Arc | None = None) -> None:
        arcs = [only_arc] if only_arc is not None else list(self.entering)
        hashkey = self.known_hashkeys[lock_index]
        for arc in arcs:
            contract_id = self.incoming_contract_ids.get(arc)
            if contract_id is None:
                continue
            if lock_index in self.unlocked_incoming[arc]:
                continue
            if not self.should_unlock(arc, lock_index):
                continue
            self.wake_after(
                self.unlock_delay(arc, lock_index),
                lambda a=arc, cid=contract_id, hk=hashkey: self._send_unlock(a, cid, hk),
            )

    def should_unlock(self, arc: Arc, lock_index: int) -> bool:
        """Strategy hook: conforming parties unlock every entering arc."""
        return True

    def unlock_delay(self, arc: Arc, lock_index: int) -> int:
        """Strategy hook: ticks before the unlock lands (action delay)."""
        return self.profile.action_delay

    def _send_unlock(self, arc: Arc, contract_id: str, hashkey: Hashkey) -> None:
        if self.abandoned:
            return
        now = self.scheduler.now
        if now >= hashkey.deadline(self.spec):
            # A rational party does not submit an expired hashkey.
            return
        if hashkey.lock_index in self.unlocked_incoming[arc]:
            return
        chain = self.network.chain_for_arc(arc)
        contract = chain.contract(contract_id)
        if contract.is_halted:
            return
        try:
            chain.call(contract_id, "unlock", self.address, now, hashkey.to_args())
        except ContractError:
            return
        self.unlocked_incoming[arc].add(hashkey.lock_index)
        self._unlock_calls_sent += 1
        self.trace.record(
            now,
            tr.HASHLOCK_UNLOCKED,
            self.address,
            arc=list(arc),
            lock_index=hashkey.lock_index,
            path_length=hashkey.path_length,
        )
        first = self._unlock_calls_sent == 1
        if first and self._maybe_crash(CrashPoint.AFTER_FIRST_UNLOCK):
            return
        if len(self.unlocked_incoming[arc]) == self.spec.lock_count():
            self.wake_after(
                self.profile.action_delay,
                lambda a=arc, cid=contract_id: self._send_claim(a, cid),
            )

    # -- refunds -------------------------------------------------------------------

    def refund_deadlines(self, arc: Arc) -> Iterable[int]:
        """Each lock's final timeout on ``arc`` (Fig. 5)."""
        return sorted(set(self.spec.final_timeouts(arc[1])))

    def __repr__(self) -> str:
        role = "leader" if self.is_leader else "follower"
        return f"SwapParty({self.address!r}, {role})"
