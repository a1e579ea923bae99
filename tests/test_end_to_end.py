"""Integration tests: the full §4.2 pipeline, offers to executed swap."""

import pytest

from repro.chain.blockchain import Blockchain
from repro.core.clearing import (
    MarketClearingService,
    Offer,
    ProposedTransfer,
    check_spec_against_offer,
    match_barter,
)
from repro.api import Scenario
from repro.core.protocol import SwapSimulation, run_swap
from repro.crypto.hashing import hash_secret
from repro.crypto.keys import KeyDirectory
from repro.crypto.signatures import get_scheme


def build_world(names):
    scheme = get_scheme("hmac-registry")
    directory = KeyDirectory()
    secrets = {}
    for name in names:
        directory.register(scheme.keygen(seed=name.encode()).renamed(name))
        secrets[name] = hash_secret(name.encode())  # any 32 bytes as secret
    return scheme, directory, secrets


class TestOffersToExecution:
    def test_cadillac_story_via_clearing(self):
        """Alice/Bob/Carol submit offers; the cleared spec's digraph runs
        to all-Deal through the standard simulation."""
        names = ["Alice", "Bob", "Carol"]
        scheme, directory, secrets = build_world(names)
        service = MarketClearingService(
            delta=1000, directory=directory, schemes={scheme.name: scheme}
        )
        service.submit(Offer("Alice", hash_secret(secrets["Alice"]),
                             (ProposedTransfer("Bob", "alt-coins", 5),)))
        service.submit(Offer("Bob", hash_secret(secrets["Bob"]),
                             (ProposedTransfer("Carol", "bitcoins", 5),)))
        service.submit(Offer("Carol", hash_secret(secrets["Carol"]),
                             (ProposedTransfer("Alice", "cadillac title", 5),)))
        broadcast = Blockchain("broadcast")
        outcome = service.clear(now=0, broadcast_chain=broadcast)

        # Every party checks the service's answer before committing (§4.2).
        for offer in service.offers():
            assert check_spec_against_offer(outcome.spec, offer) == []

        result = run_swap(outcome.spec.digraph, asset_values=outcome.arc_values)
        assert result.all_deal()

    def test_four_party_diamond(self):
        names = ["Alice", "Bob", "Carol", "Dave"]
        scheme, directory, secrets = build_world(names)
        service = MarketClearingService(
            delta=1000, directory=directory, schemes={scheme.name: scheme}
        )
        # Two interlocking cycles: A->B->C->A and A->D->C->A style.
        service.submit(Offer("Alice", hash_secret(secrets["Alice"]),
                             (ProposedTransfer("Bob"), ProposedTransfer("Dave"))))
        service.submit(Offer("Bob", hash_secret(secrets["Bob"]),
                             (ProposedTransfer("Carol"),)))
        service.submit(Offer("Carol", hash_secret(secrets["Carol"]),
                             (ProposedTransfer("Alice"),)))
        service.submit(Offer("Dave", hash_secret(secrets["Dave"]),
                             (ProposedTransfer("Carol"),)))
        outcome = service.clear(now=0)
        result = run_swap(outcome.spec.digraph)
        assert result.all_deal()
        assert result.within_time_bound()


class TestBarterToExecution:
    def test_kidney_exchange_style_pipeline(self):
        # Parties each hold one "organ slot" and want another: the clearing
        # problem finds the cycles, the protocol executes each atomically.
        haves = {
            "PairA": "kidney-O", "PairB": "kidney-A",
            "PairC": "kidney-B", "PairD": "kidney-AB", "PairE": "kidney-X",
        }
        wants = {
            "PairA": "kidney-A", "PairB": "kidney-O",
            "PairC": "kidney-AB", "PairD": "kidney-B", "PairE": "kidney-missing",
        }
        cycles = match_barter(haves, wants)
        assert len(cycles) == 2  # (A,B) and (C,D); E unmatched
        for digraph in cycles:
            result = run_swap(digraph)
            assert result.all_deal()


class TestCrossChainConsistency:
    def test_every_chain_isolated_but_consistent(self):
        from repro.digraph.generators import complete_digraph

        digraph = complete_digraph(4)
        sim = SwapSimulation(Scenario(digraph, seed=42))
        result = sim.run()
        assert result.all_deal()
        # Each arc's chain saw exactly one contract and its asset moved to
        # the arc's tail — no chain ever touched another chain's asset.
        for arc in digraph.arcs:
            chain = sim.network.chain_for_arc(arc)
            assert len(chain.contracts()) == 1
            head, tail = arc
            assert chain.assets.owner(f"asset@{head}->{tail}") == tail
            chain.ledger.verify_integrity()

    def test_space_dominated_by_digraph_copies(self):
        from repro.digraph.generators import complete_digraph

        digraph = complete_digraph(4)
        result = run_swap(digraph)
        per_contract_graph = digraph.encoded_size_bytes()
        assert result.contract_storage_bytes >= digraph.arc_count() * per_contract_graph
