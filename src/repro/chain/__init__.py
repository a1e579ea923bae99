"""Blockchain substrate: ledgers, assets, contract hosting, multi-chain."""

from repro.chain.assets import Asset, AssetRegistry
from repro.chain.blockchain import Blockchain
from repro.chain.contracts import Contract
from repro.chain.ledger import Block, Ledger, Record, canonical_encode
from repro.chain.network import BROADCAST_CHAIN_ID, ChainNetwork, chain_id_for_arc

__all__ = [
    "Asset",
    "AssetRegistry",
    "Blockchain",
    "Contract",
    "Block",
    "Ledger",
    "Record",
    "canonical_encode",
    "BROADCAST_CHAIN_ID",
    "ChainNetwork",
    "chain_id_for_arc",
]
