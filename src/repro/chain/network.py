"""The multi-chain world a swap runs in.

Each arc ``(u, v)`` of the swap digraph is "a proposed asset transfer from
the arc's head to its tail *via a shared blockchain*" (§3) — so the network
instantiates one :class:`~repro.chain.blockchain.Blockchain` per arc, plus
an optional shared *broadcast* chain used by the Phase-Two optimisation
(§4.5) and by the market-clearing service as its publication medium (§4.2).
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.chain.assets import Asset
from repro.chain.blockchain import Blockchain, ChainEventCallback
from repro.chain.ledger import EncodedSizes, Record
from repro.digraph.digraph import Arc, Digraph
from repro.errors import SimulationError

BROADCAST_CHAIN_ID = "broadcast"


def chain_id_for_arc(arc: Arc) -> str:
    """Stable chain identifier for the blockchain backing ``arc``."""
    head, tail = arc
    return f"chain:{head}->{tail}"


class ChainNetwork:
    """A registry of blockchains: one per swap arc plus the broadcast chain."""

    def __init__(self, include_broadcast: bool = True) -> None:
        self._chains: dict[str, Blockchain] = {}
        self._arc_chain: dict[Arc, str] = {}
        self.include_broadcast = include_broadcast
        # One name-length cache per network: every chain of a run names
        # the same parties, and none outlives the run.
        self._names = EncodedSizes()
        if include_broadcast:
            self._chains[BROADCAST_CHAIN_ID] = Blockchain(BROADCAST_CHAIN_ID, self._names)

    @classmethod
    def for_digraph(cls, digraph: Digraph, include_broadcast: bool = True) -> "ChainNetwork":
        """Create one chain per arc of ``digraph``."""
        network = cls(include_broadcast=include_broadcast)
        for arc in digraph.arcs:
            network.add_arc_chain(arc)
        return network

    def add_arc_chain(self, arc: Arc) -> Blockchain:
        """Create (or return) the blockchain backing ``arc``."""
        chain_id = chain_id_for_arc(arc)
        if arc not in self._arc_chain:
            if chain_id in self._chains:
                raise SimulationError(f"chain id collision for {arc!r}")
            self._chains[chain_id] = Blockchain(chain_id, self._names)
            self._arc_chain[arc] = chain_id
        return self._chains[self._arc_chain[arc]]

    def chain_for_arc(self, arc: Arc) -> Blockchain:
        try:
            return self._chains[self._arc_chain[arc]]
        except KeyError:
            raise SimulationError(f"no chain registered for arc {arc!r}") from None

    def chain(self, chain_id: str) -> Blockchain:
        try:
            return self._chains[chain_id]
        except KeyError:
            raise SimulationError(f"no chain {chain_id!r}") from None

    @property
    def broadcast_chain(self) -> Blockchain:
        if not self.include_broadcast:
            raise SimulationError("this network was built without a broadcast chain")
        return self._chains[BROADCAST_CHAIN_ID]

    def chains(self) -> list[Blockchain]:
        return list(self._chains.values())

    def arcs(self) -> list[Arc]:
        return list(self._arc_chain)

    # -- global subscription ---------------------------------------------------

    def subscribe_all(self, callback: ChainEventCallback) -> None:
        """Fire ``callback`` for every record on every chain (runner hook)."""
        for chain in self._chains.values():
            chain.subscribe(callback)

    # -- asset helpers -----------------------------------------------------------

    def register_arc_assets(
        self,
        digraph: Digraph,
        now: int = 0,
        value_of: Callable[[Arc], int] | None = None,
    ) -> dict[Arc, Asset]:
        """Mint one asset per arc, owned by the arc's head (the payer).

        Returns the ``arc -> asset`` mapping the protocol escrows from.
        """
        assets: dict[Arc, Asset] = {}
        for arc in digraph.arcs:
            head, tail = arc
            chain = self.chain_for_arc(arc)
            asset = Asset(
                asset_id=f"asset@{head}->{tail}",
                description=f"asset {head} owes {tail}",
                value=value_of(arc) if value_of is not None else 1,
            )
            chain.register_asset(asset, owner=head, now=now)
            assets[arc] = asset
        return assets

    # -- global accounting ---------------------------------------------------------

    def total_stored_bytes(self) -> int:
        """Bytes stored across *all* blockchains (Theorem 4.10's measure)."""
        return sum(chain.stored_bytes() for chain in self._chains.values())

    def total_published_bytes(self) -> int:
        return sum(chain.published_bytes() for chain in self._chains.values())

    def total_contract_storage_bytes(self) -> int:
        return sum(chain.contract_storage_bytes() for chain in self._chains.values())

    def verify_all(self) -> None:
        """Integrity-check every ledger in the network."""
        for chain in self._chains.values():
            chain.ledger.verify_integrity()

    def ownership_snapshot(self) -> dict[str, dict[str, str]]:
        """``chain_id -> (asset_id -> owner)`` across the network."""
        return {
            chain_id: chain.assets.snapshot()
            for chain_id, chain in self._chains.items()
        }

    def all_records(self) -> list[tuple[str, Record]]:
        """Every ledger record in the network, tagged with its chain id."""
        out: list[tuple[str, Record]] = []
        for chain_id, chain in self._chains.items():
            out.extend((chain_id, record) for record in chain.records())
        return out
