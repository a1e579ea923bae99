"""The Swap contract of Figures 4 and 5.

One :class:`SwapContract` is published per arc ``(party, counterparty)``.
Its long-lived state mirrors Fig. 4: the escrowed asset, (a copy of) the
swap digraph and leader vector, the two endpoint addresses, the hashlock
vector, the per-lock final-timeout vector, the ``unlocked`` flags and the
starting time.  Its three functions mirror Fig. 5:

* ``unlock(i, s, p, σ)`` — counterparty-only; validates deadline, secret,
  path and signature chain, then marks hashlock ``i`` unlocked;
* ``refund()`` — party-only; refunds once some hashlock is still locked
  and every hashkey that could open it has timed out;
* ``claim()`` — counterparty-only; transfers the asset once every
  hashlock is unlocked.

``claim`` and ``refund`` are mutually exclusive by construction: refund
requires a locked hashlock, claim requires none.
"""

from __future__ import annotations

from typing import Any

from repro.chain.assets import Asset
from repro.chain.contracts import Contract
from repro.chain.ledger import EncodedSizes, array_size, bools_size, object_frame
from repro.core.hashkey import Hashkey, wire_args_size
from repro.core.spec import SwapSpec
from repro.digraph.digraph import Arc
from repro.errors import (
    AuthorizationError,
    ContractStateError,
    InvalidHashkeyError,
)

#: The frame of a :meth:`SwapContract.state_view`: its 14 keys.
_VIEW_FRAME = object_frame(
    "arc", "party", "counterparty", "asset_id", "hashlocks", "leaders", "start_time",
    "delta", "diam", "timeout_slack", "unlocked", "claimed", "refunded", "halted",
)


class SwapContract(Contract):
    """The hashed-timelock swap contract (Figs. 4-5), hosted on one chain."""

    CALLABLE = frozenset({"unlock", "refund", "claim"})

    def __init__(self, spec: SwapSpec, arc: Arc, asset: Asset) -> None:
        super().__init__(asset)
        head, tail = arc
        if not spec.digraph.has_arc(head, tail):
            raise ContractStateError(f"{arc!r} is not an arc of the swap digraph")
        self.spec = spec
        self.arc: Arc = arc
        self.party = head
        self.counterparty = tail
        self.unlocked: list[bool] = [False] * spec.lock_count()
        self.unlock_times: list[int | None] = [None] * spec.lock_count()
        self.unlock_hashkeys: list[Hashkey | None] = [None] * spec.lock_count()
        self.claimed = False
        self.refunded = False

    # -- Fig. 5 line 26: unlock ---------------------------------------------------

    def unlock(self, caller: str, now: int, **args: Any) -> bool:
        """Unlock one hashlock with a hashkey; idempotent when already open.

        ``args`` carry the wire-format hashkey (see
        :meth:`repro.core.hashkey.Hashkey.to_args`).  Returns True when the
        hashlock is (now) unlocked; raises on any failed check so the chain
        records the reverted transaction.
        """
        if caller != self.counterparty:
            raise AuthorizationError(
                f"unlock is counterparty-only ({self.counterparty}); "
                f"called by {caller}"
            )
        self._require_live()
        try:
            hashkey = Hashkey.from_args(args)
        except (KeyError, TypeError) as error:
            raise InvalidHashkeyError(f"malformed hashkey arguments: {error}") from None
        if self.unlocked[hashkey.lock_index]:
            return True
        hashkey.verify(self.spec, self.counterparty, now)
        self.unlocked[hashkey.lock_index] = True
        self.unlock_times[hashkey.lock_index] = now
        self.unlock_hashkeys[hashkey.lock_index] = hashkey
        return True

    # -- Fig. 5 line 35: refund ------------------------------------------------------

    def refund(self, caller: str, now: int) -> bool:
        """Refund the asset to the party once the contract can never trigger.

        Refundable iff some hashlock is still locked and all of its
        possible hashkeys have timed out (§4.1's hashlock timeout; see
        DESIGN.md §2 for the reading of Fig. 5 line 37).
        """
        if caller != self.party:
            raise AuthorizationError(
                f"refund is party-only ({self.party}); called by {caller}"
            )
        self._require_live()
        if not self._refundable(now):
            raise ContractStateError(
                "refund unavailable: no hashlock is both locked and timed out"
            )
        assert self.chain is not None
        self.refunded = True
        self._halt()
        self.chain.release_escrow(self, self.party, now)
        return True

    def _refundable(self, now: int) -> bool:
        for index, is_open in enumerate(self.unlocked):
            if is_open:
                continue
            if now >= self.spec.lock_final_timeout(self.arc, index):
                return True
        return False

    # -- Fig. 5 line 42: claim ----------------------------------------------------------

    def claim(self, caller: str, now: int) -> bool:
        """Transfer the asset to the counterparty once fully unlocked."""
        if caller != self.counterparty:
            raise AuthorizationError(
                f"claim is counterparty-only ({self.counterparty}); "
                f"called by {caller}"
            )
        self._require_live()
        if not all(self.unlocked):
            locked = [i for i, open_ in enumerate(self.unlocked) if not open_]
            raise ContractStateError(f"hashlocks still locked: {locked}")
        assert self.chain is not None
        self.claimed = True
        self._halt()
        self.chain.release_escrow(self, self.counterparty, now)
        return True

    # -- state of the world ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """The paper's "arc was triggered": the transfer happened."""
        return self.claimed

    def all_unlocked(self) -> bool:
        return all(self.unlocked)

    def revealed_hashkey(self, lock_index: int) -> Hashkey | None:
        """The hashkey that opened ``lock_index``, visible to all observers.

        Secrets revealed in unlock transactions are public — this is the
        channel Phase Two's eager propagation reads from.
        """
        return self.unlock_hashkeys[lock_index]

    def state_view(self) -> dict[str, Any]:
        return {
            "arc": list(self.arc),
            "party": self.party,
            "counterparty": self.counterparty,
            "asset_id": self.asset.asset_id,
            **self.spec.shared_contract_view(),
            "unlocked": list(self.unlocked),
            "claimed": self.claimed,
            "refunded": self.refunded,
            "halted": self.is_halted,
        }

    def flags_size(self) -> int:
        """The ``unlocked`` flags, ``claimed``, ``refunded`` and
        ``halted``: the only values of the view that change."""
        return bools_size(*self.unlocked, self.claimed, self.refunded, self.is_halted)

    def fixed_state_size(self, names: EncodedSizes) -> int:
        """The view's fixed bytes by the ledger's size identity, no
        encode: its 14 keys' frame, the ``unlocked`` array's brackets
        and commas, the spec-shared members
        (:meth:`~repro.core.spec.SwapSpec.shared_view_size`, measured
        once per spec), and this contract's ``arc``, ``party``,
        ``counterparty`` and ``asset_id`` from ``names``."""
        party, counterparty = names[self.party], names[self.counterparty]
        return (
            _VIEW_FRAME
            + array_size(0, len(self.unlocked))
            + self.spec.shared_view_size()
            + array_size(party + counterparty, 2)
            + party
            + counterparty
            + names[self.asset.asset_id]
        )

    def args_size(self, method: str, args: dict[str, Any], names: EncodedSizes) -> int:
        if method == "unlock":
            size = wire_args_size(args, names)
            if size is not None:
                return size
        return super().args_size(method, args, names)

    def storage_size_bytes(self) -> int:
        """Fig. 4's long-lived fields, in bytes (Theorem 4.10 accounting).

        Dominated by the per-contract copy of the digraph — the source of
        the ``O(|A|^2)`` total across ``|A|`` contracts.
        """
        endpoint_bytes = len(self.party.encode()) + len(self.counterparty.encode())
        asset_bytes = len(self.asset.asset_id.encode())
        flags = len(self.unlocked)
        return (
            self.spec.stored_fields_size_bytes()
            + endpoint_bytes
            + asset_bytes
            + flags
        )


def expected_contract_state(spec: SwapSpec, arc: Arc, asset_id: str) -> dict[str, Any]:
    """What a *correct* freshly published contract for ``arc`` looks like.

    §4.5: each party "verifies that contract is a correct swap contract,
    and abandons the protocol otherwise".  Parties compare a published
    contract's state view against this template (ignoring the mutable
    fields).
    """
    head, tail = arc
    return {
        "arc": [head, tail],
        "party": head,
        "counterparty": tail,
        "asset_id": asset_id,
        **spec.shared_contract_view(),
    }


def is_correct_contract_state(
    state: dict[str, Any], spec: SwapSpec, arc: Arc, asset_id: str
) -> bool:
    """Does a published contract's state match the spec for ``arc``?"""
    template = expected_contract_state(spec, arc, asset_id)
    return all(state.get(key) == value for key, value in template.items())
