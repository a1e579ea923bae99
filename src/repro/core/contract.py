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

``claim`` and ``refund`` — their role checks, the halt and the release —
are :class:`~repro.chain.contracts.EscrowContract`'s; this contract
states only when its hashlocks refuse them.  The two are mutually
exclusive by construction: refund requires a locked hashlock, claim
requires none.
"""

from __future__ import annotations

from typing import Any

from repro.chain.assets import Asset
from repro.chain.contracts import EscrowContract
from repro.chain.ledger import EncodedSizes, array_size, bools_size, object_frame
from repro.core.hashkey import Hashkey, wire_args_size
from repro.core.spec import SwapSpec
from repro.digraph.digraph import Arc
from repro.errors import ContractStateError, InvalidHashkeyError

#: The frame of a :meth:`SwapContract.state_view`: its 14 keys.
_VIEW_FRAME = object_frame(
    "arc", "party", "counterparty", "asset_id", "hashlocks", "leaders", "start_time",
    "delta", "diam", "timeout_slack", "unlocked", "claimed", "refunded", "halted",
)


class SwapContract(EscrowContract):
    """The hashed-timelock swap contract (Figs. 4-5), hosted on one chain."""

    CALLABLE = frozenset({"unlock", "refund", "claim"})

    def __init__(self, spec: SwapSpec, arc: Arc, asset: Asset) -> None:
        super().__init__(arc, asset)
        if not spec.digraph.has_arc(*arc):
            raise ContractStateError(f"{arc!r} is not an arc of the swap digraph")
        self.spec = spec
        self.unlocked: list[bool] = [False] * spec.lock_count()
        self.unlock_times: list[int | None] = [None] * spec.lock_count()
        self.unlock_hashkeys: list[Hashkey | None] = [None] * spec.lock_count()

    # -- Fig. 5 line 26: unlock ---------------------------------------------------

    def unlock(self, caller: str, now: int, **args: Any) -> bool:
        """Unlock one hashlock with a hashkey; idempotent when already open.

        ``args`` carry the wire-format hashkey (see
        :meth:`repro.core.hashkey.Hashkey.to_args`).  Returns True when the
        hashlock is (now) unlocked; raises on any failed check so the chain
        records the reverted transaction.
        """
        self._admit("unlock", "counterparty", self.counterparty, caller)
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

    # -- Fig. 5 line 35: refund -------------------------------------------------------

    def _refund_refusal(self, now: int) -> str | None:
        """Refundable iff some hashlock is still locked and all of its
        possible hashkeys have timed out (§4.1's hashlock timeout; see
        DESIGN.md §2 for the reading of Fig. 5 line 37)."""
        timeouts = self.spec.final_timeouts(self.counterparty)
        for is_open, timeout in zip(self.unlocked, timeouts):
            if not is_open and now >= timeout:
                return None
        return "refund unavailable: no hashlock is both locked and timed out"

    # -- Fig. 5 line 42: claim ----------------------------------------------------------

    def _claim_refusal(self) -> str | None:
        """Claimable once every hashlock is unlocked."""
        locked = [i for i, open_ in enumerate(self.unlocked) if not open_]
        return f"hashlocks still locked: {locked}" if locked else None

    # -- state of the world ------------------------------------------------------------

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
        return self.spec.stored_fields_size_bytes() + self._arc_bytes() + len(self.unlocked)


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
