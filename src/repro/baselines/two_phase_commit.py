"""Baseline B3: two-phase commit through a *trusted* coordinator.

The paper calls atomic swaps "a trust-free, Byzantine-hardened form of
distributed commitment".  This baseline is the commitment protocol that
comparison implies: every party escrows its asset into a coordinator-
controlled contract; once the coordinator sees all escrows it decides
COMMIT (release everything to the counterparties) or, at its discretion or
after a timeout, ABORT (refund everything).

With an honest coordinator this is strictly better on latency — a
constant number of rounds regardless of ``diam(D)`` — and cheaper in
bytes: no digraph copies, no hashkeys, no signatures.  The price is the
trust assumption, which :class:`ByzantineCoordinator` cashes in: a
coordinator that commits only a subset of arcs drives conforming parties
Underwater, something no coalition can do to the hashkey protocol
(Theorem 4.9).  Bench E17 prints both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.chain.assets import Asset
from repro.chain.blockchain import Blockchain
from repro.chain.contracts import EscrowContract
from repro.chain.ledger import Record, bools_size, encoded_size
from repro.chain.network import ChainNetwork
from repro.core.spec import resolve_start
from repro.digraph.digraph import Arc, Digraph, Vertex
from repro.errors import AssetError, ContractError
from repro.sim import trace as tr
from repro.sim.harness import SimulationHarness
from repro.sim.process import Process, ReactionProfile
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Trace

COORDINATOR = "coordinator"


class CoordinatedEscrowContract(EscrowContract):
    """Escrow that only the named coordinator can resolve.

    ``decide(commit=True)`` pays the counterparty; ``decide(commit=False)``
    refunds the party; a ``commit`` that is not a bool is refused.  After
    ``timeout`` with no decision the party may ``refund`` unilaterally
    (so a crashed coordinator cannot lock funds forever — the classic 2PC
    blocking problem, softened with a deadline).
    A decision releases the asset at once, so the contract is halted
    after any decision and the counterparty never calls ``claim``.
    """

    CALLABLE = frozenset({"decide", "refund"})

    def __init__(
        self, arc: Arc, asset: Asset, coordinator: str, timeout: int
    ) -> None:
        super().__init__(arc, asset)
        self.coordinator = coordinator
        self.timeout = timeout
        self.decision: bool | None = None

    def decide(self, caller: str, now: int, commit: bool) -> bool:
        self._admit("decide", "coordinator", self.coordinator, caller)
        if type(commit) is not bool:
            raise ContractError(f"decide needs a true or false commit, got {commit!r}")
        self.decision = commit
        self._release(commit, now)
        return True

    def _claim_refusal(self) -> str | None:
        return "only the coordinator's decision pays the counterparty"

    def _refund_refusal(self, now: int) -> str | None:
        if now < self.timeout:
            return f"coordinator still has until {self.timeout} (now {now})"
        return None

    def state_view(self) -> dict[str, Any]:
        return {
            "arc": list(self.arc),
            "party": self.party,
            "counterparty": self.counterparty,
            "asset_id": self.asset.asset_id,
            "coordinator": self.coordinator,
            "timeout": self.timeout,
            "decision": self.decision,
            "halted": self.is_halted,
        }

    def flags_size(self) -> int:
        # ``decision`` is null until decided, then the bool ``commit`` was.
        return encoded_size(self.decision) + bools_size(self.is_halted)

    def storage_size_bytes(self) -> int:
        return self._arc_bytes() + len(self.coordinator.encode()) + 8 + 1


class EscrowParty(Process):
    """Escrows its leaving assets at start; refunds after timeout if needed."""

    def __init__(
        self,
        name: Vertex,
        digraph: Digraph,
        network: ChainNetwork,
        assets: dict[Arc, Asset],
        trace: Trace,
        scheduler: Scheduler,
        profile: ReactionProfile,
        timeout: int,
    ) -> None:
        super().__init__(name, scheduler, profile)
        self.address = name
        self.digraph = digraph
        self.network = network
        self.assets = assets
        self.trace = trace
        self.timeout = timeout
        self.contract_ids: dict[Arc, str] = {}

    def start(self) -> None:
        self.wake_after(self.profile.action_delay, self._escrow_all)

    def _escrow_all(self) -> None:
        now = self.scheduler.now
        for arc in self.digraph.out_arcs(self.address):
            contract = CoordinatedEscrowContract(
                arc=arc, asset=self.assets[arc], coordinator=COORDINATOR, timeout=self.timeout
            )
            chain = self.network.chain_for_arc(arc)
            try:
                contract_id = chain.publish_contract(contract, self.address, now)
            except (AssetError, ContractError):
                continue
            self.contract_ids[arc] = contract_id
            self.trace.record(now, tr.CONTRACT_PUBLISHED, self.address, arc=list(arc))
            self.wake_after(
                max(0, self.timeout - now) + self.profile.action_delay,
                lambda a=arc, cid=contract_id: self._try_refund(a, cid),
            )

    def _try_refund(self, arc: Arc, contract_id: str) -> None:
        chain = self.network.chain_for_arc(arc)
        if not chain.contract(contract_id).refundable(self.scheduler.now):
            return
        try:
            chain.call(contract_id, "refund", self.address, self.scheduler.now)
        except ContractError:
            return
        self.trace.record(self.scheduler.now, tr.ARC_REFUNDED, self.address, arc=list(arc))

    def on_chain_record(self, chain: Blockchain, record: Record, landed_at: int) -> None:
        """Escrow parties act on their own schedule; decisions are final."""


class Coordinator(Process):
    """Observes escrows; commits all once everything is in.

    ``commit_only`` (Byzantine mode) commits just that arc subset and
    aborts the rest — the partial commit no conforming participant can
    distinguish from honesty until it is too late.
    """

    def __init__(
        self,
        digraph: Digraph,
        network: ChainNetwork,
        trace: Trace,
        scheduler: Scheduler,
        profile: ReactionProfile,
        commit_only: set[Arc] | None = None,
        crash_before_decide: bool = False,
    ) -> None:
        super().__init__(COORDINATOR, scheduler, profile)
        self.digraph = digraph
        self.network = network
        self.trace = trace
        self.commit_only = commit_only
        self.crash_before_decide = crash_before_decide
        self.escrowed: dict[Arc, str] = {}
        self.decided = False

    def on_chain_record(self, chain: Blockchain, record: Record, landed_at: int) -> None:
        if record.kind != "contract_published" or self.decided:
            return
        state = record.payload.get("state", {})
        arc_value = state.get("arc")
        if not arc_value or state.get("coordinator") != COORDINATOR:
            return
        arc: Arc = (arc_value[0], arc_value[1])
        self.escrowed[arc] = record.payload["contract_id"]
        if len(self.escrowed) == self.digraph.arc_count():
            if self.crash_before_decide:
                self.halt()
                self.trace.record(self.scheduler.now, tr.PARTY_CRASHED, COORDINATOR)
                return
            self.wake_after(self.profile.action_delay, self._decide)

    def _decide(self) -> None:
        if self.decided:
            return
        self.decided = True
        now = self.scheduler.now
        for arc, contract_id in self.escrowed.items():
            commit = self.commit_only is None or arc in self.commit_only
            chain = self.network.chain_for_arc(arc)
            try:
                chain.call(contract_id, "decide", COORDINATOR, now, {"commit": commit})
            except ContractError:
                continue
            if commit:
                self.trace.record(now, tr.ARC_TRIGGERED, COORDINATOR, arc=list(arc))
            else:
                self.trace.record(now, tr.ARC_REFUNDED, COORDINATOR, arc=list(arc))


@dataclass
class TwoPhaseCommitSpec:
    """Duck-typed spec for :func:`collect_result`."""

    digraph: Digraph
    leaders: tuple[Vertex, ...]
    start_time: int
    delta: int
    diam: int

    def phase_two_bound(self) -> int:
        # Honest 2PC: escrow round + decide round, independent of diam.
        return self.start_time + 3 * self.delta


def _prepare_two_phase_commit_swap(scenario: Any):
    """``(harness, start_time, finalize)``: the assembled 2PC exchange of
    ``scenario`` for the execution-session layer.  Its ``params`` may
    name ``byzantine_commit_only`` (the arcs a Byzantine coordinator
    commits, aborting the rest) and ``coordinator_crashes``."""
    digraph = scenario.digraph()
    commit_only = scenario.params.get("byzantine_commit_only")
    harness = SimulationHarness.for_config(
        digraph,
        scenario,
        include_broadcast=False,
    )
    start = resolve_start(scenario)
    timeout = start + 4 * scenario.delta

    harness.build_parties(
        lambda vertex, profile: EscrowParty(
            name=vertex,
            digraph=digraph,
            network=harness.network,
            assets=harness.assets,
            trace=harness.trace,
            scheduler=harness.scheduler,
            profile=profile,
            timeout=timeout,
        )
    )
    # The coordinator is not a digraph vertex, so timing models (which
    # assign per-party profiles) leave it at the uniform baseline.
    coordinator = Coordinator(
        digraph=digraph,
        network=harness.network,
        trace=harness.trace,
        scheduler=harness.scheduler,
        profile=harness.base_profile,
        commit_only={tuple(arc) for arc in commit_only} if commit_only else None,
        crash_before_decide=bool(scenario.params.get("coordinator_crashes", False)),
    )
    harness.wire_observations(extra_watchers=(coordinator,))

    spec = TwoPhaseCommitSpec(
        digraph=digraph,
        leaders=(COORDINATOR,),
        start_time=start,
        delta=scenario.delta,
        diam=1,
    )
    conforming = frozenset(digraph.vertices)
    return harness, start, partial(harness.collect, spec, scenario, conforming)
