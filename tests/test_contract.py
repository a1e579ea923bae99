"""Unit tests for the Swap contract (Figures 4-5), exercised directly.

A minimal on-chain environment is assembled by hand (one chain, one
contract) so each clause of ``unlock`` / ``refund`` / ``claim`` can be
driven explicitly — the protocol-level tests cover the same contract
through full simulations.
"""

import pytest

from repro.chain.assets import Asset
from repro.chain.blockchain import Blockchain
from repro.core.contract import (
    SwapContract,
    expected_contract_state,
    is_correct_contract_state,
)
from repro.core.hashkey import Hashkey
from repro.core.spec import SwapSpec
from repro.crypto.hashing import hash_secret
from repro.crypto.keys import KeyDirectory
from repro.crypto.signatures import get_scheme
from repro.digraph.generators import triangle
from repro.digraph.paths import diameter
from repro.errors import (
    AuthorizationError,
    ContractStateError,
    InvalidHashkeyError,
)

DELTA = 1000
SECRET = b"s" * 32
ARC = ("Carol", "Alice")  # the Cadillac-title arc; counterparty is the leader


@pytest.fixture
def world():
    """A published contract on the (Carol, Alice) arc with leader Alice."""
    scheme = get_scheme("hmac-registry")
    digraph = triangle()
    pairs = {
        name: scheme.keygen(seed=name.encode()).renamed(name)
        for name in digraph.vertices
    }
    directory = KeyDirectory()
    for pair in pairs.values():
        directory.register(pair)
    spec = SwapSpec(
        digraph=digraph,
        leaders=("Alice",),
        hashlocks=(hash_secret(SECRET),),
        start_time=DELTA,
        delta=DELTA,
        diam=diameter(digraph),
        directory=directory,
        schemes={scheme.name: scheme},
    )
    chain = Blockchain("chain:Carol->Alice")
    asset = Asset("title")
    chain.register_asset(asset, "Carol", now=0)
    contract = SwapContract(spec, ARC, asset)
    cid = chain.publish_contract(contract, "Carol", now=DELTA)
    hashkey = Hashkey.originate(0, SECRET, pairs["Alice"], scheme)
    return spec, chain, contract, cid, hashkey, pairs, scheme


class TestConstruction:
    def test_wrong_arc_rejected(self, world):
        spec, *_ = world
        with pytest.raises(ContractStateError):
            SwapContract(spec, ("Alice", "Carol"), Asset("x"))

    def test_initial_state(self, world):
        _, _, contract, *_ = world
        assert contract.unlocked == [False]
        assert not contract.triggered and not contract.refunded


class TestUnlock:
    def test_valid_unlock(self, world):
        spec, chain, contract, cid, hashkey, _, _ = world
        chain.call(cid, "unlock", "Alice", spec.start_time, hashkey.to_args())
        assert contract.unlocked == [True]
        assert contract.revealed_hashkey(0) == hashkey

    def test_only_counterparty(self, world):
        spec, chain, contract, cid, hashkey, _, _ = world
        with pytest.raises(AuthorizationError):
            chain.call(cid, "unlock", "Carol", spec.start_time, hashkey.to_args())

    def test_idempotent(self, world):
        spec, chain, contract, cid, hashkey, _, _ = world
        chain.call(cid, "unlock", "Alice", spec.start_time, hashkey.to_args())
        chain.call(cid, "unlock", "Alice", spec.start_time, hashkey.to_args())
        assert contract.unlocked == [True]

    def test_expired_hashkey_rejected(self, world):
        spec, chain, contract, cid, hashkey, _, _ = world
        with pytest.raises(InvalidHashkeyError):
            chain.call(cid, "unlock", "Alice", hashkey.deadline(spec), hashkey.to_args())
        assert contract.unlocked == [False]

    def test_wrong_secret_rejected(self, world):
        spec, chain, contract, cid, hashkey, pairs, scheme = world
        bogus = Hashkey.originate(0, b"x" * 32, pairs["Alice"], scheme)
        with pytest.raises(InvalidHashkeyError):
            chain.call(cid, "unlock", "Alice", spec.start_time, bogus.to_args())

    def test_malformed_args_rejected(self, world):
        spec, chain, contract, cid, *_ = world
        with pytest.raises(InvalidHashkeyError):
            chain.call(cid, "unlock", "Alice", spec.start_time, {"lock_index": 0})


class TestClaim:
    def test_claim_after_unlock(self, world):
        spec, chain, contract, cid, hashkey, _, _ = world
        chain.call(cid, "unlock", "Alice", spec.start_time, hashkey.to_args())
        chain.call(cid, "claim", "Alice", spec.start_time + 10)
        assert contract.triggered
        assert chain.assets.owner("title") == "Alice"

    def test_claim_locked_rejected(self, world):
        spec, chain, contract, cid, *_ = world
        with pytest.raises(ContractStateError):
            chain.call(cid, "claim", "Alice", spec.start_time)

    def test_claim_only_counterparty(self, world):
        spec, chain, contract, cid, hashkey, _, _ = world
        chain.call(cid, "unlock", "Alice", spec.start_time, hashkey.to_args())
        with pytest.raises(AuthorizationError):
            chain.call(cid, "claim", "Carol", spec.start_time + 10)

    def test_claim_after_halt_rejected(self, world):
        spec, chain, contract, cid, hashkey, _, _ = world
        chain.call(cid, "unlock", "Alice", spec.start_time, hashkey.to_args())
        chain.call(cid, "claim", "Alice", spec.start_time + 10)
        with pytest.raises(ContractStateError):
            chain.call(cid, "claim", "Alice", spec.start_time + 20)


class TestRefund:
    def test_refund_after_final_timeout(self, world):
        spec, chain, contract, cid, *_ = world
        deadline = spec.lock_final_timeout(ARC, 0)
        chain.call(cid, "refund", "Carol", deadline)
        assert contract.refunded
        assert chain.assets.owner("title") == "Carol"

    def test_refund_too_early_rejected(self, world):
        spec, chain, contract, cid, *_ = world
        deadline = spec.lock_final_timeout(ARC, 0)
        with pytest.raises(ContractStateError):
            chain.call(cid, "refund", "Carol", deadline - 1)

    def test_refund_only_party(self, world):
        spec, chain, contract, cid, *_ = world
        deadline = spec.lock_final_timeout(ARC, 0)
        with pytest.raises(AuthorizationError):
            chain.call(cid, "refund", "Alice", deadline)

    def test_refund_blocked_when_all_unlocked(self, world):
        # claim/refund mutual exclusion: once fully unlocked, never refundable.
        spec, chain, contract, cid, hashkey, _, _ = world
        chain.call(cid, "unlock", "Alice", spec.start_time, hashkey.to_args())
        deadline = spec.lock_final_timeout(ARC, 0)
        with pytest.raises(ContractStateError):
            chain.call(cid, "refund", "Carol", deadline + DELTA)
        # And the claim still works arbitrarily late.
        chain.call(cid, "claim", "Alice", deadline + 2 * DELTA)
        assert contract.triggered

    def test_unlock_after_refund_rejected(self, world):
        spec, chain, contract, cid, hashkey, _, _ = world
        deadline = spec.lock_final_timeout(ARC, 0)
        chain.call(cid, "refund", "Carol", deadline)
        with pytest.raises(ContractStateError):
            chain.call(cid, "unlock", "Alice", deadline + 1, hashkey.to_args())


class TestStateView:
    def test_correctness_check_accepts_honest(self, world):
        spec, chain, contract, *_ = world
        assert is_correct_contract_state(contract.state_view(), spec, ARC, "title")

    def test_correctness_check_rejects_wrong_asset(self, world):
        spec, chain, contract, *_ = world
        assert not is_correct_contract_state(contract.state_view(), spec, ARC, "other")

    def test_correctness_check_rejects_forged_hashlock(self, world):
        spec, chain, contract, *_ = world
        state = contract.state_view()
        state["hashlocks"] = [hash_secret(b"forged").hex()]
        assert not is_correct_contract_state(state, spec, ARC, "title")

    def test_expected_state_template_fields(self, world):
        spec, *_ = world
        template = expected_contract_state(spec, ARC, "title")
        assert template["party"] == "Carol"
        assert template["counterparty"] == "Alice"
        assert template["diam"] == spec.diam

    def test_storage_includes_digraph(self, world):
        spec, chain, contract, *_ = world
        assert contract.storage_size_bytes() >= spec.digraph.encoded_size_bytes()
