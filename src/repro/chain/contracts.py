"""The contract-hosting layer: publication, irrevocability, dispatch.

A smart contract here is a Python object implementing :class:`Contract`.
Once published on a :class:`~repro.chain.blockchain.Blockchain` it is
irrevocable: it cannot be removed, its declared fields cannot be replaced,
and its state evolves only through :meth:`~repro.chain.blockchain.Blockchain.call`,
which records every invocation on the ledger (the record *is* the
transaction).  This mirrors §2.2: "Once a contract is published, it is
irrevocable."

The base class is protocol-agnostic.  :class:`EscrowContract` adds the
one lifecycle every arc contract shares — the counterparty takes the
escrow once the lock is open, the party takes it back once the lock can
no longer open — so the paper's Swap contract
(:class:`~repro.core.contract.SwapContract`), §4.6's plain hashed
timelock (:class:`~repro.core.timelocks.SimpleTimelockContract`) and the
2PC baseline's escrow
(:class:`~repro.baselines.two_phase_commit.CoordinatedEscrowContract`)
supply only their lock.  Parties read :meth:`EscrowContract.claimable`
and :meth:`EscrowContract.refundable` instead of restating the rule.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any
from weakref import ref

from repro.chain.assets import Asset
from repro.chain.ledger import EncodedSizes, encoded_size
from repro.digraph.digraph import Arc
from repro.errors import AuthorizationError, ContractError, ContractStateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.chain.blockchain import Blockchain


class Contract(ABC):
    """Base class for all hosted contracts.

    Subclasses declare which methods are invokable on-chain via
    ``CALLABLE``; each such method has signature
    ``method(caller: str, now: int, **kwargs)`` and may raise
    :class:`~repro.errors.ContractError` subclasses, which the chain
    records as failed transactions (state unchanged).

    Attributes (assigned by the chain at publication):
        contract_id: Stable on-chain identifier; also the escrow owner id.
        chain: The hosting blockchain, held weakly: the chain holds its
            contracts, and a strong link back would make a cycle.
        published_at: Ledger timestamp of the publication block.
        creator: Address that published (and escrowed the asset).
    """

    CALLABLE: frozenset[str] = frozenset()

    def __init__(self, asset: Asset) -> None:
        self.asset = asset
        self.contract_id: str | None = None
        self._host: "ref[Blockchain] | None" = None
        self.published_at: int | None = None
        self.creator: str | None = None
        self._halted = False
        self._fixed_state_size: int | None = None

    # -- publication lifecycle -------------------------------------------------

    def bind(self, chain: "Blockchain", contract_id: str, creator: str, now: int) -> None:
        """Called exactly once by the hosting chain at publication."""
        if self.contract_id is not None:
            raise ContractError(
                f"contract already published as {self.contract_id} "
                "(contracts are irrevocable and single-use)"
            )
        self._host = ref(chain)
        self.contract_id = contract_id
        self.creator = creator
        self.published_at = now

    @property
    def chain(self) -> "Blockchain | None":
        """The hosting blockchain (``None`` before publication)."""
        return None if self._host is None else self._host()

    @property
    def is_published(self) -> bool:
        return self.contract_id is not None

    @property
    def is_halted(self) -> bool:
        """True after the asset has been released (claimed or refunded)."""
        return self._halted

    def _require_live(self) -> None:
        if not self.is_published:
            raise ContractStateError("contract is not published")
        if self._halted:
            raise ContractStateError("contract has halted (asset released)")

    def _halt(self) -> None:
        self._halted = True

    # -- introspection ----------------------------------------------------------

    @abstractmethod
    def state_view(self) -> dict[str, Any]:
        """A JSON-compatible snapshot of public state, as a reader sees it."""

    def state_size(self, names: EncodedSizes) -> int:
        """``len(canonical_encode(self.state_view()))``: the size the chain
        layer gives every record that carries the view.

        The one sizing entry point for a contract's view.  When the
        contract declares its mutable values' bytes (:meth:`flags_size`),
        the rest of the view is sized once, by :meth:`fixed_state_size`,
        and the flags are added by identity; otherwise the whole view is
        encoded on every read.  ``names`` holds the run's encoded name
        lengths, as for :meth:`args_size`.
        """
        flags = self.flags_size()
        if flags is None:
            return encoded_size(self.state_view())
        fixed = self._fixed_state_size
        if fixed is None:
            fixed = self._fixed_state_size = self.fixed_state_size(names)
        return fixed + flags

    def flags_size(self) -> int | None:
        """Encoded bytes of the state view's mutable values, or ``None``
        when the contract does not declare them.  A contract that
        overrides this promises that every other byte of its view —
        keys, frames and values — is fixed from construction on."""
        return None

    def fixed_state_size(self, names: EncodedSizes) -> int:
        """Encoded bytes of the state view besides :meth:`flags_size`,
        read once per contract by :meth:`state_size`.

        The default measures the view with the ledger's encoder; a
        contract that knows its view's shape declares the bytes by the
        ledger's size identity instead (``names`` holds the run's
        encoded name lengths).
        """
        flags = self.flags_size()
        assert flags is not None
        return encoded_size(self.state_view()) - flags

    def args_size(self, method: str, args: dict[str, Any], names: EncodedSizes) -> int:
        """``len(canonical_encode(args))`` for a call of ``method``.

        The default measures ``args`` with the ledger's encoder; a
        contract sizes the argument shapes it knows by the identity
        (``names`` holds the run's encoded name lengths) and defers to
        this for anything else, so a malformed call is still sized
        exactly.
        """
        return encoded_size(args) if args else 2

    @abstractmethod
    def storage_size_bytes(self) -> int:
        """Bytes of long-lived storage this contract occupies on-chain.

        Counted once at publication toward Theorem 4.10's space bound.
        """

    def describe(self) -> str:
        return f"{type(self).__name__}({self.contract_id or 'unpublished'})"


class EscrowContract(Contract):
    """One arc's escrow: the party ``arc[0]`` locks the asset for the
    counterparty ``arc[1]``.

    The counterparty takes it (:meth:`claim`) once the lock is open; the
    party takes it back (:meth:`refund`) once the lock can no longer
    open; either release halts the contract for good.  A subclass
    supplies only its lock — the methods that open or decide it, and the
    refusal :meth:`_claim_refusal` and :meth:`_refund_refusal` give while
    the lock says no — plus its view and sizing.  Every on-chain method
    checks its caller, then that the contract is live (:meth:`_admit`),
    then the lock, and mutates nothing before all three pass.
    """

    def __init__(self, arc: Arc, asset: Asset) -> None:
        super().__init__(asset)
        self.arc: Arc = arc
        self.party, self.counterparty = arc
        self.claimed = False
        self.refunded = False

    @property
    def triggered(self) -> bool:
        """The paper's "arc was triggered": the counterparty took the asset."""
        return self.claimed

    def claimable(self) -> bool:
        """Would the counterparty's :meth:`claim` succeed now?  A free read."""
        return not self.is_halted and self._claim_refusal() is None

    def refundable(self, now: int) -> bool:
        """Would the party's :meth:`refund` succeed at ``now``?  A free read."""
        return not self.is_halted and self._refund_refusal(now) is None

    def claim(self, caller: str, now: int) -> bool:
        """Transfer the asset to the counterparty once the lock is open."""
        self._admit("claim", "counterparty", self.counterparty, caller)
        refusal = self._claim_refusal()
        if refusal is not None:
            raise ContractStateError(refusal)
        self._release(True, now)
        return True

    def refund(self, caller: str, now: int) -> bool:
        """Return the asset to the party once the lock can no longer open."""
        self._admit("refund", "party", self.party, caller)
        refusal = self._refund_refusal(now)
        if refusal is not None:
            raise ContractStateError(refusal)
        self._release(False, now)
        return True

    @abstractmethod
    def _claim_refusal(self) -> str | None:
        """Why the lock refuses a claim now, or ``None`` when it is open."""

    @abstractmethod
    def _refund_refusal(self, now: int) -> str | None:
        """Why the lock refuses a refund at ``now``, or ``None`` once it
        can no longer open."""

    def _admit(self, method: str, role: str, address: str, caller: str) -> None:
        """Refuse a caller other than ``role``'s ``address``, then a
        contract that is not live."""
        if caller != address:
            raise AuthorizationError(
                f"{method} is {role}-only ({address}); called by {caller}"
            )
        self._require_live()

    def mark_released(self, to_counterparty: bool) -> str:
        """The chain-free half of a release: set ``claimed`` (the
        counterparty takes the asset) or ``refunded`` (the party takes it
        back), halt, and return the recipient.  Moves no asset: a call
        that releases on a chain does that next (:meth:`_release`);
        report synthesis reads the released contract's view without a
        chain."""
        if to_counterparty:
            self.claimed = True
            recipient = self.counterparty
        else:
            self.refunded = True
            recipient = self.party
        self._halt()
        return recipient

    def _release(self, to_counterparty: bool, now: int) -> None:
        """Halt, and hand the asset to the counterparty (a claim) or back
        to the party (a refund) on the hosting chain."""
        recipient = self.mark_released(to_counterparty)
        assert self.chain is not None
        self.chain.release_escrow(self, recipient, now)

    def _arc_bytes(self) -> int:
        """Storage bytes of the two endpoint addresses and the asset id,
        which every arc contract keeps."""
        return (
            len(self.party.encode())
            + len(self.counterparty.encode())
            + len(self.asset.asset_id.encode())
        )
