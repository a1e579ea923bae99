"""The escrow contracts' on-chain bytes, pinned.

A refused call is a ledger record: ``"{Type}: {message}"`` is stored in
its payload and counted toward the published bytes.  For each of the
three arc-escrow contracts — the Swap contract of Figs. 4-5, §4.6's plain
hashed timelock and the 2PC baseline's coordinated escrow — every refusal
is driven through :meth:`~repro.chain.blockchain.Blockchain.call` and its
exception class and recorded ``error`` text are held to a literal: a
wrong caller on each method, a claim while locked, a refund too early, a
refund after an unlock or a decision, a second decision, and any call
after the asset is released.  Which check fires first is part of the
pin (a wrong caller is refused before a halted contract is).  The
``CALLABLE`` sets, state views, view sizes and storage sizes are pinned
beside them.

The ``2pc`` engine's ledgers are pinned whole: a SHA-256 over every
record of every chain, with its chain and block timestamp, for the
honest, ``byzantine_commit_only`` and ``coordinator_crashes`` runs on
``triangle()`` and ``cycle_digraph(4)``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api.engine import get_engine
from repro.api.scenario import Scenario
from repro.baselines.two_phase_commit import COORDINATOR, CoordinatedEscrowContract
from repro.chain.assets import Asset
from repro.chain.blockchain import Blockchain
from repro.chain.ledger import EncodedSizes, encoded_size
from repro.core.contract import SwapContract
from repro.core.hashkey import Hashkey
from repro.core.spec import SwapSpec
from repro.core.timelocks import SimpleTimelockContract
from repro.crypto.hashing import hash_secret
from repro.crypto.keys import KeyDirectory
from repro.crypto.signatures import get_scheme
from repro.digraph.generators import cycle_digraph, triangle
from repro.digraph.paths import diameter
from repro.errors import (
    AuthorizationError,
    ContractError,
    ContractStateError,
    InvalidHashkeyError,
)

DELTA = 100
START = 1000
SECRET = b"s" * 32
HALTED = "ContractStateError: contract has halted (asset released)"


def refusal(chain: Blockchain, cid: str, method: str, caller: str, now: int,
            args: dict | None = None) -> tuple[type, str]:
    """Call ``method``, which must be refused; return the exception class
    and the ``error`` text the chain recorded for the failed call."""
    before = len(chain.records())
    with pytest.raises(ContractError) as info:
        chain.call(cid, method, caller, now, args)
    records = chain.records()
    assert len(records) == before + 1
    payload = records[-1].payload
    assert payload["ok"] is False and payload["method"] == method
    return type(info.value), payload["error"]


def view_and_sizes(contract) -> tuple[dict, int, int]:
    """The contract's view, its sized bytes (held to the encoding) and
    its storage bytes."""
    view = contract.state_view()
    size = contract.state_size(EncodedSizes())
    assert size == encoded_size(view)
    return view, size, contract.storage_size_bytes()


# -- the Swap contract (Figs. 4-5) ------------------------------------------------


@pytest.fixture
def swap():
    """A published Swap contract on (Carol, Alice), leader Alice."""
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
        start_time=START,
        delta=DELTA,
        diam=diameter(digraph),
        directory=directory,
        schemes={scheme.name: scheme},
    )
    chain = Blockchain("chain:Carol->Alice")
    asset = Asset("title")
    chain.register_asset(asset, "Carol", now=0)
    contract = SwapContract(spec, ("Carol", "Alice"), asset)
    cid = chain.publish_contract(contract, "Carol", now=START)
    hashkey = Hashkey.originate(0, SECRET, pairs["Alice"], scheme)
    return spec, chain, contract, cid, hashkey


class TestSwapContract:
    def test_callable(self):
        assert SwapContract.CALLABLE == frozenset({"unlock", "refund", "claim"})

    def test_wrong_caller_on_each_method(self, swap):
        spec, chain, _, cid, hashkey = swap
        assert refusal(chain, cid, "unlock", "Carol", START, hashkey.to_args()) == (
            AuthorizationError,
            "AuthorizationError: unlock is counterparty-only (Alice); called by Carol",
        )
        assert refusal(chain, cid, "claim", "Bob", START) == (
            AuthorizationError,
            "AuthorizationError: claim is counterparty-only (Alice); called by Bob",
        )
        assert refusal(chain, cid, "refund", "Alice", START) == (
            AuthorizationError,
            "AuthorizationError: refund is party-only (Carol); called by Alice",
        )

    def test_claim_while_locked(self, swap):
        _, chain, _, cid, _ = swap
        assert refusal(chain, cid, "claim", "Alice", START) == (
            ContractStateError,
            "ContractStateError: hashlocks still locked: [0]",
        )

    def test_malformed_unlock(self, swap):
        _, chain, _, cid, _ = swap
        assert refusal(chain, cid, "unlock", "Alice", START, {"lock_index": 0}) == (
            InvalidHashkeyError,
            "InvalidHashkeyError: malformed hashkey arguments: 'secret'",
        )

    def test_refund_too_early(self, swap):
        spec, chain, _, cid, _ = swap
        timeout = spec.lock_final_timeout(("Carol", "Alice"), 0)
        assert refusal(chain, cid, "refund", "Carol", timeout - 1) == (
            ContractStateError,
            "ContractStateError: refund unavailable: no hashlock is both locked "
            "and timed out",
        )

    def test_refund_after_unlock(self, swap):
        spec, chain, contract, cid, hashkey = swap
        chain.call(cid, "unlock", "Alice", START, hashkey.to_args())
        timeout = spec.lock_final_timeout(("Carol", "Alice"), 0)
        assert refusal(chain, cid, "refund", "Carol", timeout + 1) == (
            ContractStateError,
            "ContractStateError: refund unavailable: no hashlock is both locked "
            "and timed out",
        )
        assert contract.unlocked == [True] and not contract.is_halted

    def test_every_call_after_claim(self, swap):
        _, chain, contract, cid, hashkey = swap
        chain.call(cid, "unlock", "Alice", START, hashkey.to_args())
        chain.call(cid, "claim", "Alice", START + 1)
        assert contract.claimed and contract.triggered and not contract.refunded
        for method, caller, args in (
            ("unlock", "Alice", hashkey.to_args()),
            ("claim", "Alice", None),
            ("refund", "Carol", None),
        ):
            assert refusal(chain, cid, method, caller, START + 2, args) == (
                ContractStateError, HALTED,
            )
        # The caller is checked before the halt.
        assert refusal(chain, cid, "claim", "Carol", START + 2)[0] is AuthorizationError

    def test_every_call_after_refund(self, swap):
        spec, chain, contract, cid, hashkey = swap
        timeout = spec.lock_final_timeout(("Carol", "Alice"), 0)
        chain.call(cid, "refund", "Carol", timeout)
        assert contract.refunded and not contract.triggered
        assert chain.assets.owner("title") == "Carol"
        for method, caller, args in (
            ("unlock", "Alice", hashkey.to_args()),
            ("claim", "Alice", None),
            ("refund", "Carol", None),
        ):
            assert refusal(chain, cid, method, caller, timeout, args) == (
                ContractStateError, HALTED,
            )

    def test_views_and_sizes(self, swap):
        _, chain, contract, cid, hashkey = swap
        view, size, storage = view_and_sizes(contract)
        assert (size, storage) == (308, 188)
        assert {k: view[k] for k in ("arc", "unlocked", "claimed", "refunded", "halted")} == {
            "arc": ["Carol", "Alice"], "unlocked": [False], "claimed": False,
            "refunded": False, "halted": False,
        }
        assert list(view) == [
            "arc", "party", "counterparty", "asset_id", "hashlocks", "leaders",
            "start_time", "delta", "diam", "timeout_slack", "unlocked", "claimed",
            "refunded", "halted",
        ]
        chain.call(cid, "unlock", "Alice", START, hashkey.to_args())
        chain.call(cid, "claim", "Alice", START + 1)
        view, size, storage = view_and_sizes(contract)
        assert (size, storage) == (305, 188)
        assert (view["unlocked"], view["claimed"], view["refunded"], view["halted"]) == (
            [True], True, False, True,
        )


# -- §4.6's plain hashed timelock -------------------------------------------------


@pytest.fixture
def htlc():
    chain = Blockchain("chain:Bob->Carol")
    asset = Asset("asset@Bob->Carol")
    chain.register_asset(asset, "Bob", now=0)
    contract = SimpleTimelockContract(
        ("Bob", "Carol"), asset, hash_secret(SECRET), timeout=START + DELTA,
        start_time=START,
    )
    cid = chain.publish_contract(contract, "Bob", now=START)
    return chain, contract, cid


class TestSimpleTimelockContract:
    def test_callable(self):
        assert SimpleTimelockContract.CALLABLE == frozenset({"unlock", "refund", "claim"})

    def test_wrong_caller_on_each_method(self, htlc):
        chain, _, cid = htlc
        assert refusal(chain, cid, "unlock", "Bob", START, {"secret": SECRET}) == (
            AuthorizationError,
            "AuthorizationError: unlock is counterparty-only (Carol); called by Bob",
        )
        assert refusal(chain, cid, "claim", "Bob", START) == (
            AuthorizationError,
            "AuthorizationError: claim is counterparty-only (Carol); called by Bob",
        )
        assert refusal(chain, cid, "refund", "Carol", START + DELTA) == (
            AuthorizationError,
            "AuthorizationError: refund is party-only (Bob); called by Carol",
        )

    def test_claim_while_locked(self, htlc):
        chain, _, cid = htlc
        assert refusal(chain, cid, "claim", "Carol", START) == (
            ContractStateError, "ContractStateError: hashlock still locked",
        )

    def test_unlock_refusals(self, htlc):
        chain, _, cid = htlc
        assert refusal(chain, cid, "unlock", "Carol", START, {"secret": b"x"}) == (
            ContractStateError, "ContractStateError: secret does not match hashlock",
        )
        assert refusal(chain, cid, "unlock", "Carol", START + DELTA, {"secret": SECRET}) == (
            ContractStateError, "ContractStateError: timed out at 1100 (now 1100)",
        )

    def test_refund_too_early(self, htlc):
        chain, _, cid = htlc
        assert refusal(chain, cid, "refund", "Bob", START + DELTA - 1) == (
            ContractStateError,
            "ContractStateError: not yet timed out (timeout 1100, now 1099)",
        )

    def test_refund_after_unlock(self, htlc):
        chain, contract, cid = htlc
        chain.call(cid, "unlock", "Carol", START, {"secret": SECRET})
        # The unlock is checked before the timeout.
        for now in (START + 1, START + DELTA):
            assert refusal(chain, cid, "refund", "Bob", now) == (
                ContractStateError,
                "ContractStateError: hashlock already unlocked; refund impossible",
            )
        assert contract.unlocked and not contract.is_halted

    def test_every_call_after_claim(self, htlc):
        chain, contract, cid = htlc
        chain.call(cid, "unlock", "Carol", START, {"secret": SECRET})
        chain.call(cid, "claim", "Carol", START + 1)
        assert contract.claimed and contract.triggered and not contract.refunded
        for method, caller, args in (
            ("unlock", "Carol", {"secret": SECRET}),
            ("claim", "Carol", None),
            ("refund", "Bob", None),
        ):
            assert refusal(chain, cid, method, caller, START + DELTA, args) == (
                ContractStateError, HALTED,
            )
        assert refusal(chain, cid, "refund", "Carol", START + DELTA)[0] is (
            AuthorizationError
        )

    def test_every_call_after_refund(self, htlc):
        chain, contract, cid = htlc
        chain.call(cid, "refund", "Bob", START + DELTA)
        assert contract.refunded and not contract.triggered
        for method, caller, args in (
            ("unlock", "Carol", {"secret": SECRET}),
            ("claim", "Carol", None),
            ("refund", "Bob", None),
        ):
            assert refusal(chain, cid, method, caller, START + DELTA, args) == (
                ContractStateError, HALTED,
            )

    def test_views_and_sizes(self, htlc):
        chain, contract, cid = htlc
        view, size, storage = view_and_sizes(contract)
        assert (size, storage) == (266, 73)
        assert view == {
            "arc": ["Bob", "Carol"], "party": "Bob", "counterparty": "Carol",
            "asset_id": "asset@Bob->Carol", "hashlock": hash_secret(SECRET).hex(),
            "timeout": 1100, "start_time": 1000, "unlocked": False, "claimed": False,
            "refunded": False, "halted": False,
        }
        assert list(view) == [
            "arc", "party", "counterparty", "asset_id", "hashlock", "timeout",
            "start_time", "unlocked", "claimed", "refunded", "halted",
        ]
        chain.call(cid, "unlock", "Carol", START, {"secret": SECRET})
        chain.call(cid, "claim", "Carol", START + 1)
        view, size, storage = view_and_sizes(contract)
        assert (size, storage) == (263, 73)
        assert (view["unlocked"], view["claimed"], view["refunded"], view["halted"]) == (
            True, True, False, True,
        )


# -- the 2PC baseline's coordinated escrow ------------------------------------------


@pytest.fixture
def escrow():
    chain = Blockchain("chain:Alice->Bob")
    asset = Asset("asset@Alice->Bob")
    chain.register_asset(asset, "Alice", now=0)
    contract = CoordinatedEscrowContract(
        ("Alice", "Bob"), asset, COORDINATOR, timeout=START + DELTA
    )
    cid = chain.publish_contract(contract, "Alice", now=START)
    return chain, contract, cid


class TestCoordinatedEscrowContract:
    def test_callable(self):
        assert CoordinatedEscrowContract.CALLABLE == frozenset({"decide", "refund"})

    def test_wrong_caller_on_each_method(self, escrow):
        chain, _, cid = escrow
        assert refusal(chain, cid, "decide", "Alice", START, {"commit": True}) == (
            AuthorizationError,
            "AuthorizationError: decide is coordinator-only (coordinator); called by Alice",
        )
        assert refusal(chain, cid, "refund", "Bob", START + DELTA) == (
            AuthorizationError,
            "AuthorizationError: refund is party-only (Alice); called by Bob",
        )
        assert refusal(chain, cid, "refund", COORDINATOR, START + DELTA) == (
            AuthorizationError,
            "AuthorizationError: refund is party-only (Alice); called by coordinator",
        )

    def test_refund_too_early(self, escrow):
        chain, _, cid = escrow
        assert refusal(chain, cid, "refund", "Alice", START + DELTA - 1) == (
            ContractStateError,
            "ContractStateError: coordinator still has until 1100 (now 1099)",
        )

    @pytest.mark.parametrize("commit", [True, False, None, 1])
    def test_refund_and_decide_after_a_decision(self, escrow, commit):
        chain, contract, cid = escrow
        if type(commit) is not bool:
            # Only a bool decides; anything else is refused and leaves
            # the escrow live and undecided.
            owner = chain.assets.owner("asset@Alice->Bob")
            assert refusal(chain, cid, "decide", COORDINATOR, START, {"commit": commit}) == (
                ContractError,
                f"ContractError: decide needs a true or false commit, got {commit!r}",
            )
            assert contract.decision is None and not contract.is_halted
            assert not contract.triggered and not contract.refunded
            assert chain.assets.owner("asset@Alice->Bob") == owner
            assert refusal(chain, cid, "refund", "Alice", START) == (
                ContractStateError,
                "ContractStateError: coordinator still has until 1100 (now 1000)",
            )
            return
        chain.call(cid, "decide", COORDINATOR, START, {"commit": commit})
        assert contract.decision == commit and contract.is_halted
        assert contract.triggered is bool(commit)
        assert contract.refunded is not bool(commit)
        assert chain.assets.owner("asset@Alice->Bob") == ("Bob" if commit else "Alice")
        for second in (True, False):
            assert refusal(chain, cid, "decide", COORDINATOR, START, {"commit": second}) == (
                ContractStateError, HALTED,
            )
        assert refusal(chain, cid, "decide", "Bob", START, {"commit": True})[0] is (
            AuthorizationError
        )
        for now in (START, START + DELTA):
            assert refusal(chain, cid, "refund", "Alice", now) == (
                ContractStateError, HALTED,
            )

    def test_every_call_after_refund(self, escrow):
        chain, contract, cid = escrow
        chain.call(cid, "refund", "Alice", START + DELTA)
        assert contract.refunded and not contract.triggered and contract.decision is None
        assert refusal(chain, cid, "decide", COORDINATOR, START + DELTA, {"commit": True}) == (
            ContractStateError, HALTED,
        )
        assert refusal(chain, cid, "refund", "Alice", START + DELTA) == (
            ContractStateError, HALTED,
        )

    def test_views_and_sizes(self, escrow):
        chain, contract, cid = escrow
        view, size, storage = view_and_sizes(contract)
        assert (size, storage) == (164, 44)
        assert view == {
            "arc": ["Alice", "Bob"], "party": "Alice", "counterparty": "Bob",
            "asset_id": "asset@Alice->Bob", "coordinator": COORDINATOR,
            "timeout": 1100, "decision": None, "halted": False,
        }
        assert list(view) == [
            "arc", "party", "counterparty", "asset_id", "coordinator", "timeout",
            "decision", "halted",
        ]
        chain.call(cid, "decide", COORDINATOR, START, {"commit": True})
        view, size, storage = view_and_sizes(contract)
        assert (size, storage) == (163, 44)
        assert (view["decision"], view["halted"]) == (True, True)


# -- whole 2PC ledgers --------------------------------------------------------------


def ledger_digest(report) -> str:
    """SHA-256 over every record of every chain of a run, in chain and
    block order, each with its chain id and block timestamp."""
    digest = hashlib.sha256()
    for chain in report.raw.network.chains():
        for block in chain.ledger.blocks():
            for record in block.records:
                digest.update(chain.chain_id.encode() + b"\0")
                digest.update(block.timestamp.to_bytes(8, "big", signed=True))
                digest.update(record.encoded())
    return digest.hexdigest()


TWO_PHASE_COMMIT_LEDGERS = {
    ("triangle", "honest"):
        "e481260e31d080ec8f344868b5c521e595878d46ad8e5b90a0c74e7f9195a98c",
    ("triangle", "byzantine_commit_only"):
        "e38f09ffc4ed243410177a013536993dc7eed9cf9dee54d6e9982d775f362424",
    ("triangle", "coordinator_crashes"):
        "274c284479e59cfb5d29d6de673c99673dd4352f8be3da9aeb7fd9e78f164b8a",
    ("cycle4", "honest"):
        "4ba133aea59d9736b24a565536201069ea2fdf9b3b785c36a3c705005a3e2d78",
    ("cycle4", "byzantine_commit_only"):
        "7c45e7687ac81588c1e5fb90483b51b90718c7d52d72f9b0c5020d4b76e40c97",
    ("cycle4", "coordinator_crashes"):
        "f948990a9dc71ea47ca88559f89e7777a09599965ec3f988e467e7dfbe45445a",
}

TOPOLOGIES = {"triangle": triangle, "cycle4": lambda: cycle_digraph(4)}


def two_phase_commit_params(family: str, mode: str) -> dict:
    digraph = TOPOLOGIES[family]()
    if mode == "byzantine_commit_only":
        return {"byzantine_commit_only": [list(digraph.arcs[0])]}
    if mode == "coordinator_crashes":
        return {"coordinator_crashes": True}
    return {}


@pytest.mark.parametrize("family, mode", sorted(TWO_PHASE_COMMIT_LEDGERS))
def test_two_phase_commit_ledgers(family, mode):
    report = get_engine("2pc").run(
        Scenario(
            topology=TOPOLOGIES[family](), seed=7,
            params=two_phase_commit_params(family, mode),
        )
    )
    assert ledger_digest(report) == TWO_PHASE_COMMIT_LEDGERS[family, mode]
