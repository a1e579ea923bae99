"""Deviating party strategies.

Each strategy subclasses :class:`~repro.core.party.SwapParty` and overrides
one or two hooks, modelling the misbehaviours the paper analyses:

* :class:`RefuseToPublishParty` — skips publishing some or all leaving
  contracts (the Lemma 4.11 collusion primitive);
* :class:`WithholdSecretParty` — a leader that deploys contracts but never
  reveals its secret (everyone times out into NoDeal);
* :class:`PrematureRevealParty` — a leader that starts Phase Two
  immediately, before Phase One completes ("If Alice (irrationally)
  reveals s before the first phase completes...", §1);
* :class:`SelectiveUnlockParty` — unlocks only chosen entering arcs,
  forgoing some of its own assets;
* :class:`LastMomentUnlockParty` — delays every unlock to just before the
  hashkey deadline (the §1 attack that breaks equal-timeout protocols;
  Lemma 4.8 shows the hashkey protocol tolerates it);
* :class:`WrongContractParty` — publishes contracts whose hashlocks do not
  match the spec (observers must abandon);
* :class:`GreedyClaimOnlyParty` — never publishes, but still claims
  whatever it can (a pure free-ride attempt).

Strategies are installed per-party through
:class:`~repro.core.protocol.SwapSimulation`'s ``strategies`` argument.
"""

from __future__ import annotations

from random import Random

from repro.core.contract import SwapContract
from repro.core.party import SwapParty
from repro.core.spec import SwapSpec
from repro.crypto.hashing import random_secret, sha256
from repro.digraph.digraph import Arc


class RefuseToPublishParty(SwapParty):
    """Publishes nothing on ``withheld_arcs`` (all leaving arcs by default).

    Still participates in Phase Two for whatever contracts exist, trying to
    collect entering assets — the primitive move of every free-riding
    coalition (Lemma 4.11's collusion).
    """

    def __init__(self, *args, withheld_arcs: set[Arc] | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.withheld_arcs = withheld_arcs  # None means "withhold everything"

    def should_publish(self, arc: Arc) -> bool:
        if self.withheld_arcs is None:
            return False
        return arc not in self.withheld_arcs


class WithholdSecretParty(SwapParty):
    """A leader that completes Phase One but never begins Phase Two."""

    def _begin_phase_two(self) -> None:
        return  # never reveal the secret


class PrematureRevealParty(SwapParty):
    """A leader that reveals its secret at the very start (irrational).

    §1: only the premature revealer can end up worse off — the protocol
    still protects everyone else, which bench E11 checks.
    """

    def start(self) -> None:
        super().start()
        if self.is_leader:
            # Begin Phase Two immediately, without waiting for contracts on
            # entering arcs.
            self.wake_after(self.profile.action_delay, self._premature_phase_two)

    def _premature_phase_two(self) -> None:
        if not self.phase_two_started:
            self.phase_two_started = True
            from repro.core.hashkey import Hashkey
            from repro.sim import trace as tr

            assert self.secret is not None
            lock_index = self.spec.lock_index_of(self.address)
            hashkey = Hashkey.originate(lock_index, self.secret, self.keypair, self.scheme)
            self.known_hashkeys[lock_index] = hashkey
            self.trace.record(
                self.scheduler.now,
                tr.PHASE_STARTED,
                self.address,
                phase=2,
                premature=True,
            )
            if self.use_broadcast:
                # Leak the secret to the world immediately — the §1 story
                # needs the secret out even before contracts exist.
                self._broadcast_secret(hashkey)
            self._schedule_unlocks(lock_index)

    def _maybe_advance_phase(self) -> None:
        # Keep the publishing side of the conforming logic, but Phase Two
        # has already (prematurely) started.
        if self.abandoned:
            return
        if len(self.verified_incoming) != len(self.entering):
            return
        if not self.is_leader and not self.published:
            self.wake_after(self.profile.action_delay, self._publish_outgoing)


class SelectiveUnlockParty(SwapParty):
    """Unlocks only the entering arcs in ``unlock_only`` (self-harming)."""

    def __init__(self, *args, unlock_only: set[Arc] | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.unlock_only = unlock_only if unlock_only is not None else set()

    def should_unlock(self, arc: Arc, lock_index: int) -> bool:
        return arc in self.unlock_only


class LastMomentUnlockParty(SwapParty):
    """Delays each unlock until ``margin`` ticks before its deadline.

    Against the hashkey protocol this is safe for everyone else: Lemma 4.8
    gives each predecessor on the path a full Δ to react, because *its*
    hashkey deadline is one Δ later.  Against the naive equal-timeout
    baseline the same behaviour strands the victim (bench E17).
    """

    def __init__(self, *args, margin: int | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.margin = margin

    def unlock_delay(self, arc: Arc, lock_index: int) -> int:
        hashkey = self.known_hashkeys[lock_index]
        deadline = hashkey.deadline(self.spec)
        margin = self.margin if self.margin is not None else max(1, self.spec.delta // 100)
        target = deadline - margin
        return max(self.profile.action_delay, target - self.scheduler.now)


class WrongContractParty(SwapParty):
    """Publishes contracts with forged hashlocks; observers must abandon."""

    def __init__(self, *args, rng: Random | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rng = rng if rng is not None else Random(0xBAD)

    def make_contract(self, arc: Arc) -> SwapContract:
        forged_locks = tuple(
            sha256(b"forged" + random_secret(self._rng)) for _ in self.spec.hashlocks
        )
        forged_spec = SwapSpec(
            digraph=self.spec.digraph,
            leaders=self.spec.leaders,
            hashlocks=forged_locks,
            start_time=self.spec.start_time,
            delta=self.spec.delta,
            diam=self.spec.diam,
            timeout_slack=self.spec.timeout_slack,
            directory=self.spec.directory,
            schemes=self.spec.schemes,
        )
        return SwapContract(forged_spec, arc, self.assets[arc])


class GreedyClaimOnlyParty(RefuseToPublishParty):
    """Never escrows anything; claims any entering contract it can unlock.

    Combines refuse-to-publish with full Phase-Two participation — the
    strongest individual free-ride attempt against the protocol.
    """

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("withheld_arcs", None)
        super().__init__(*args, **kwargs)
