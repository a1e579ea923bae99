"""The contract-hosting layer: publication, irrevocability, dispatch.

A smart contract here is a Python object implementing :class:`Contract`.
Once published on a :class:`~repro.chain.blockchain.Blockchain` it is
irrevocable: it cannot be removed, its declared fields cannot be replaced,
and its state evolves only through :meth:`~repro.chain.blockchain.Blockchain.call`,
which records every invocation on the ledger (the record *is* the
transaction).  This mirrors §2.2: "Once a contract is published, it is
irrevocable."

The base class is protocol-agnostic so both the paper's Swap contract
(:mod:`repro.core.contract`) and the baseline protocols' contracts plug in.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any

from repro.chain.assets import Asset
from repro.chain.ledger import EncodedSizes, encoded_size
from repro.errors import ContractError, ContractStateError

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
        chain: The hosting blockchain.
        published_at: Ledger timestamp of the publication block.
        creator: Address that published (and escrowed the asset).
    """

    CALLABLE: frozenset[str] = frozenset()

    def __init__(self, asset: Asset) -> None:
        self.asset = asset
        self.contract_id: str | None = None
        self.chain: "Blockchain | None" = None
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
        self.chain = chain
        self.contract_id = contract_id
        self.creator = creator
        self.published_at = now

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
