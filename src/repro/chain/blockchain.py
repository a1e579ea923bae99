"""A single simulated blockchain: ledger + assets + hosted contracts.

One :class:`Blockchain` instance backs one arc of the swap digraph (plus,
optionally, one shared broadcast chain for the Phase-Two optimisation).
It provides:

* **publication** — :meth:`publish_contract` escrows the asset into the
  contract and records the publication (irrevocable thereafter);
* **invocation** — :meth:`call` dispatches an allow-listed method on a
  hosted contract, records the transaction (success or failure) on the
  ledger, and never lets a failed call mutate state;
* **reading** — :meth:`contract_state`, :meth:`records`; the *timing* of
  who sees what when is imposed by the simulator, not here;
* **accounting** — stored bytes (Theorem 4.10) and published bytes
  (communication complexity) are tracked separately.

Every record is sized as it is built: the functions below add a record
shape's fixed frame (:func:`~repro.chain.ledger.record_frame`) to the
encoded lengths of its parts — names from the run's
:class:`~repro.chain.ledger.EncodedSizes`, a contract's state view from
:meth:`~repro.chain.contracts.Contract.state_size`, call arguments from
:meth:`~repro.chain.contracts.Contract.args_size` — and the record
carries that length to the ledger's running total.  Only a free-form
payload (:meth:`Blockchain.publish_data`, a failed call's error text) is
measured with the encoder, once, as its record is built.  The analytic
fast path sizes its synthesized transcript with the same functions.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.chain.assets import Asset, AssetRegistry
from repro.chain.contracts import Contract
from repro.chain.ledger import (
    EncodedSizes,
    Ledger,
    Record,
    bools_size,
    encoded_size,
    int_size,
    record_frame,
    record_size,
)
from repro.errors import AssetError, ContractError, ContractStateError

ChainEventCallback = Callable[["Blockchain", Record, int], None]

# Fixed bytes of each record shape the chain builds: the record's frame,
# its kind and its payload's keys (plus the constant ``ok`` flag).
_REGISTERED = record_frame("asset_registered", "asset_id", "owner")
_TRANSFER = record_frame("asset_transfer", "asset_id", "from", "to")
_PUBLISHED = record_frame(
    "contract_published", "asset_id", "contract_id", "contract_type", "state", "storage_bytes"
)
_CALL_OK = record_frame(
    "contract_call", "args", "contract_id", "method", "ok", "state"
) + bools_size(True)
_CALL_FAILED = record_frame(
    "contract_call", "args", "contract_id", "error", "method", "ok"
) + bools_size(False)


def registration_size(names: EncodedSizes, asset_id: str, owner: str) -> int:
    """Encoded length of an ``asset_registered`` record."""
    return _REGISTERED + 2 * names[owner] + names[asset_id]


def transfer_size(
    names: EncodedSizes, author: str, asset_id: str, sender: str, recipient: str
) -> int:
    """Encoded length of an ``asset_transfer`` record."""
    return _TRANSFER + names[author] + names[asset_id] + names[sender] + names[recipient]


def publication_size(
    names: EncodedSizes,
    sender: str,
    contract_id: str,
    contract: Contract,
    storage_bytes: int,
    state_size: int,
) -> int:
    """Encoded length of the ``contract_published`` record of ``contract``,
    given its ``storage_size_bytes()`` and its state view's length."""
    return (
        _PUBLISHED
        + names[sender]
        + names[contract.asset.asset_id]
        + names[contract_id]
        + names[type(contract).__name__]
        + int_size(storage_bytes)
        + state_size
    )


def call_size(
    names: EncodedSizes,
    sender: str,
    contract_id: str,
    method: str,
    args_size: int,
    state_size: int,
) -> int:
    """Encoded length of a successful ``contract_call`` record, given
    its arguments' and the resulting state view's encoded lengths."""
    return (
        _CALL_OK + names[sender] + names[contract_id] + names[method] + args_size + state_size
    )


class Blockchain:
    """A publicly readable, tamper-proof ledger hosting contracts and assets."""

    def __init__(self, chain_id: str, names: EncodedSizes | None = None) -> None:
        self.chain_id = chain_id
        self.names = EncodedSizes() if names is None else names
        """Encoded name lengths; a network shares one among its chains."""
        self.ledger = Ledger(chain_id)
        self.assets = AssetRegistry(chain_id)
        self._contracts: dict[str, Contract] = {}
        self._subscribers: tuple[ChainEventCallback, ...] = ()

    # -- subscription (wired to the simulator's observation delays) ----------

    def subscribe(self, callback: ChainEventCallback) -> None:
        """Register a callback fired synchronously for every new record.

        The discrete-event runner uses this to schedule each party's
        *delayed* observation; parties never subscribe directly.
        """
        self._subscribers += (callback,)

    def _record(self, record: Record, now: int) -> None:
        self.ledger.append(record, now)
        for callback in self._subscribers:
            callback(self, record, now)

    # -- assets -----------------------------------------------------------------

    def register_asset(self, asset: Asset, owner: str, now: int = 0) -> None:
        """Mint an asset onto this chain with an initial owner."""
        self.assets.register(asset, owner)
        self._record(
            Record(
                kind="asset_registered",
                author=owner,
                payload={"asset_id": asset.asset_id, "owner": owner},
                size=registration_size(self.names, asset.asset_id, owner),
            ),
            now,
        )

    def transfer_asset(self, asset_id: str, sender: str, recipient: str, now: int) -> None:
        """A plain recorded transfer (no contract): sender must own the asset.

        Used by the trust-based baseline protocols; the atomic swap itself
        only ever moves assets through contract escrow.
        """
        self.assets.transfer(asset_id, sender, recipient)
        self._record(
            Record(
                kind="asset_transfer",
                author=sender,
                payload={"asset_id": asset_id, "from": sender, "to": recipient},
                size=transfer_size(self.names, sender, asset_id, sender, recipient),
            ),
            now,
        )

    def publish_data(self, kind: str, author: str, payload: dict, now: int) -> Record:
        """Publish a plain data record (no contract semantics).

        Used for the §4.5 broadcast optimisation (leaders posting secrets on
        the shared chain) and for the market-clearing service's spec
        publication.
        """
        names = self.names
        size = record_size(names[kind], names[author], encoded_size(payload))
        record = Record(kind=kind, author=author, payload=payload, size=size)
        self._record(record, now)
        return record

    # -- contracts ----------------------------------------------------------------

    def publish_contract(self, contract: Contract, sender: str, now: int) -> str:
        """Publish ``contract``, escrowing its asset from ``sender``.

        The sender must own the contract's asset on this chain; ownership
        moves to the contract (escrow).  Returns the contract id.  Raises
        :class:`AssetError` (no escrow possible) or :class:`ContractError`
        (already published) without recording anything — a transaction that
        cannot pay for its escrow never makes it on-chain.
        """
        if contract.is_published:
            raise ContractError("contract instance already published")
        contract_id = f"{self.chain_id}/contract-{len(self._contracts)}"
        # Escrow first: if the sender does not own the asset this raises
        # and the publication never happens.
        self.assets.transfer(contract.asset.asset_id, sender, contract_id)
        contract.bind(self, contract_id, sender, now)
        self._contracts[contract_id] = contract
        storage_bytes = contract.storage_size_bytes()
        size = publication_size(
            self.names, sender, contract_id, contract, storage_bytes,
            contract.state_size(self.names),
        )
        self._record(
            Record(
                kind="contract_published",
                author=sender,
                payload={
                    "contract_id": contract_id,
                    "contract_type": type(contract).__name__,
                    "asset_id": contract.asset.asset_id,
                    "storage_bytes": storage_bytes,
                    "state": contract.state_view(),
                },
                size=size,
            ),
            now,
        )
        return contract_id

    def call(
        self,
        contract_id: str,
        method: str,
        sender: str,
        now: int,
        args: dict[str, Any] | None = None,
    ) -> Any:
        """Invoke ``method`` on a hosted contract as a recorded transaction.

        Failed calls (any :class:`ContractError`) are recorded with their
        error and re-raised; by construction contract methods validate
        before mutating, so a failed call leaves state unchanged.
        """
        args = args or {}
        contract = self.contract(contract_id)
        if method not in contract.CALLABLE:
            raise ContractError(
                f"{method!r} is not an on-chain method of {contract.describe()}"
            )
        payload: dict[str, Any] = {
            "contract_id": contract_id,
            "method": method,
            "args": args,
        }
        names = self.names
        try:
            result = getattr(contract, method)(caller=sender, now=now, **args)
        except ContractError as error:
            payload["ok"] = False
            payload["error"] = text = f"{type(error).__name__}: {error}"
            size = (
                _CALL_FAILED
                + names[sender]
                + names[contract_id]
                + names[method]
                + contract.args_size(method, args, names)
                + encoded_size(text)
            )
            self._record(
                Record(kind="contract_call", author=sender, payload=payload, size=size), now
            )
            raise
        payload["ok"] = True
        payload["state"] = contract.state_view()
        size = call_size(
            names,
            sender,
            contract_id,
            method,
            contract.args_size(method, args, names),
            contract.state_size(names),
        )
        self._record(Record(kind="contract_call", author=sender, payload=payload, size=size), now)
        return result

    def contract(self, contract_id: str) -> Contract:
        try:
            return self._contracts[contract_id]
        except KeyError:
            raise ContractError(
                f"no contract {contract_id!r} on chain {self.chain_id}"
            ) from None

    def contracts(self) -> list[Contract]:
        return list(self._contracts.values())

    def contract_state(self, contract_id: str) -> dict[str, Any]:
        """Read a contract's public state (readers are free and instant;
        observation *delays* are imposed by the simulator)."""
        return self.contract(contract_id).state_view()

    def release_escrow(self, contract: Contract, recipient: str, now: int) -> None:
        """Called by a hosted contract to hand its asset to ``recipient``.

        Only the contract that holds the escrow may release it.
        """
        if contract.contract_id is None or contract.chain is not self:
            raise ContractStateError("only a hosted contract can release escrow")
        current_owner = self.assets.owner(contract.asset.asset_id)
        if current_owner != contract.contract_id:
            raise AssetError(
                f"escrow violation: {contract.contract_id} does not hold "
                f"{contract.asset.asset_id!r} (owner: {current_owner})"
            )
        self.assets.transfer(contract.asset.asset_id, contract.contract_id, recipient)
        self._record(
            Record(
                kind="asset_transfer",
                author=contract.contract_id,
                payload={
                    "asset_id": contract.asset.asset_id,
                    "from": contract.contract_id,
                    "to": recipient,
                },
                size=transfer_size(
                    self.names,
                    contract.contract_id,
                    contract.asset.asset_id,
                    contract.contract_id,
                    recipient,
                ),
            ),
            now,
        )

    # -- reading and accounting ---------------------------------------------------

    def records(self) -> list[Record]:
        return self.ledger.records()

    def stored_bytes(self) -> int:
        """Total bytes persisted on this chain: the published record
        bytes plus one block header per record."""
        return self.ledger.total_size_bytes()

    def published_bytes(self) -> int:
        """Total record bytes ever published (communication accounting)."""
        return self.ledger.record_bytes()

    def contract_storage_bytes(self) -> int:
        """Long-lived contract storage only (the Theorem 4.10 measure)."""
        return sum(c.storage_size_bytes() for c in self._contracts.values())

    def __repr__(self) -> str:
        return (
            f"Blockchain({self.chain_id!r}, blocks={len(self.ledger)}, "
            f"contracts={len(self._contracts)})"
        )
