"""Record sizes supplied at build time against the records' encodings.

The chain layer sizes every record as it builds it, by the ledger's size
identity, and the ledger adds that size to its byte total without
encoding the record.  For every record kind the chain produces —
registration, plain and escrow-release transfers, contract publication,
successful and failed contract calls, ``publish_data`` — and for every
contract class, every registered signature scheme, escaped and
non-ASCII party names and two-digit lock indices, the supplied size must
equal ``len(canonical_encode(record.body()))`` and the ledger's total
the sum of the encodings.  A swap contract's view is sized without
encoding it: its size must equal the view's encoding at every flag
state, and the spec-shared members are measured once per spec.
"""

from __future__ import annotations

import itertools
from random import Random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.engine import _synthesize
from repro.analysis.protocol import analyze_scenario
from repro.api.engine import get_engine
from repro.api.scenario import Scenario
from repro.baselines.two_phase_commit import COORDINATOR, CoordinatedEscrowContract
from repro.chain import ledger
from repro.chain.assets import Asset
from repro.chain.blockchain import Blockchain
from repro.chain.contracts import Contract
from repro.chain.ledger import (
    EncodedSizes,
    Record,
    canonical_encode,
    canonical_encoded_total,
    encoded_size,
    object_frame,
)
from repro.core.contract import SwapContract
from repro.core.hashkey import Hashkey, unlock_args_size
from repro.core.spec import SwapSpec
from repro.core.timelocks import SimpleTimelockContract
from repro.crypto.hashing import hash_secret
from repro.crypto.keys import KeyDirectory
from repro.crypto.signatures import get_scheme, scheme_names
from repro.digraph.generators import complete_digraph
from repro.digraph.paths import diameter
from repro.errors import ContractError

SAMPLE = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
DELTA = 100
START = 1000

#: Name characters the encoder escapes or widens, beside plain ones.
NAME_ALPHABET = 'abXYZ09_ é日"\\\n\t'
EDGE_NAMES = ["Pé", 'a"b', "\\"]
names_st = st.text(NAME_ALPHABET, min_size=1, max_size=5)

json_leaf = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**12), max_value=10**12)
    | st.text(NAME_ALPHABET, max_size=8)
    | st.binary(max_size=16)
)
json_payload = st.dictionaries(
    st.text(NAME_ALPHABET, max_size=6),
    st.recursive(
        json_leaf,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(NAME_ALPHABET, max_size=4), inner, max_size=3),
        max_leaves=8,
    ),
    max_size=4,
)


def assert_sized(chain: Blockchain) -> None:
    records = chain.records()
    assert records
    for record in records:
        assert record.size == len(canonical_encode(record.body())), record
    bodies = [record.body() for record in records]
    assert chain.published_bytes() == canonical_encoded_total(bodies)
    assert chain.stored_bytes() == chain.published_bytes() + 80 * len(records)


def try_call(chain: Blockchain, *args, **kwargs) -> bool:
    try:
        chain.call(*args, **kwargs)
    except ContractError:
        return False
    return True


def swap_world(names: list[str], scheme_name: str):
    """A swap contract on a complete digraph whose last vertex is the one
    follower: every other vertex leads a lock, in ``names`` order."""
    digraph = complete_digraph(names)
    *leaders, follower = names
    secrets = [bytes([index]) * 32 for index in range(len(leaders))]
    scheme = get_scheme(scheme_name)
    # Stateful schemes verify through the instance that signed.
    relay = scheme if scheme_name == "hmac-registry" else get_scheme("hmac-registry")
    pairs = {
        name: (scheme if name in leaders else relay).keygen(seed=name.encode()).renamed(name)
        for name in names
    }
    directory = KeyDirectory()
    for pair in pairs.values():
        directory.register(pair)
    spec = SwapSpec(
        digraph=digraph,
        leaders=tuple(leaders),
        hashlocks=tuple(hash_secret(secret) for secret in secrets),
        start_time=START,
        delta=DELTA,
        diam=diameter(digraph),
        directory=directory,
        schemes={scheme.name: scheme, relay.name: relay},
    )
    return spec, secrets, pairs, {scheme.name: scheme, relay.name: relay}


def drive_swap(names, scheme_name, unlocks, payload, finish_late):
    """Publish a swap contract on ``(names[0], follower)``, unlock the
    locks in ``unlocks`` (in that order) with two-hop hashkeys, make
    failing calls around them, claim or refund, and publish data."""
    spec, secrets, pairs, schemes = swap_world(names, scheme_name)
    party, follower = names[0], names[-1]
    chain = Blockchain(f"chain:{party}->{follower}")
    asset = Asset(f"asset@{party}->{follower}")
    chain.register_asset(asset, party, now=0)
    contract = SwapContract(spec, (party, follower), asset)
    cid = chain.publish_contract(contract, party, now=START)
    assert not try_call(chain, cid, "claim", party, START)  # party may not claim
    assert not try_call(chain, cid, "unlock", follower, START, {"lock_index": "x"})
    hashkeys = {}
    for lock in range(len(spec.leaders)):
        leader = spec.leaders[lock]
        hashkey = Hashkey.originate(lock, secrets[lock], pairs[leader], schemes[scheme_name])
        hashkeys[lock] = hashkey
    for lock in unlocks:
        hashkey = hashkeys[lock].extend(pairs[follower], schemes["hmac-registry"])
        assert not try_call(chain, cid, "unlock", party, START, hashkey.to_args())
        assert try_call(chain, cid, "unlock", follower, START, hashkey.to_args())
    locked = [lock for lock in range(len(spec.leaders)) if lock not in unlocks]
    if locked:
        # A one-hop path from the follower is not a digraph path to the
        # leader, and the signature layers disagree with it: refused.
        hashkey = hashkeys[locked[-1]]
        args = dict(hashkey.to_args(), path=[follower])
        assert not try_call(chain, cid, "unlock", follower, START, args)
    if finish_late:
        try_call(chain, cid, "refund", party, 10**9)
    else:
        try_call(chain, cid, "claim", follower, START + 1)
    chain.publish_data("spec", follower, payload, now=10**9)
    assert_sized(chain)
    return chain, contract


@SAMPLE
@given(
    names=st.lists(names_st, min_size=3, max_size=12, unique=True),
    scheme_name=st.sampled_from(sorted(scheme_names())),
    data=st.data(),
)
def test_swap_contract_records(names, scheme_name, data):
    unlocks = data.draw(
        st.lists(st.integers(0, len(names) - 2), unique=True, max_size=3), label="unlocks"
    )
    drive_swap(
        names,
        scheme_name,
        unlocks,
        data.draw(json_payload, label="payload"),
        data.draw(st.booleans(), label="finish_late"),
    )


@pytest.mark.parametrize("scheme_name", sorted(scheme_names()))
def test_two_digit_locks_and_escaped_names(scheme_name):
    names = EDGE_NAMES + [f"v{index}" for index in range(9)]
    chain, contract = drive_swap(
        names, scheme_name, [10, 0], {"names": EDGE_NAMES, "raw": b"\x00"}, False
    )
    assert contract.unlocked[10] and contract.unlocked[0]
    unlock = [r for r in chain.records() if r.payload.get("method") == "unlock"]
    assert any(r.payload["args"]["lock_index"] == 10 and r.payload["ok"] for r in unlock)


def test_every_lock_open_then_claimed():
    names = EDGE_NAMES + ["z"]
    chain, contract = drive_swap(names, "hmac-registry", [2, 0, 1], {}, False)
    assert contract.claimed and contract.is_halted
    kinds = [(r.kind, r.payload.get("ok")) for r in chain.records()]
    assert ("asset_transfer", None) in kinds and ("contract_call", False) in kinds


@SAMPLE
@given(
    party=names_st,
    counterparty=names_st,
    secret=st.binary(min_size=1, max_size=40),
    right_secret=st.booleans(),
    finish=st.sampled_from(["claim", "refund", "none"]),
)
def test_simple_timelock_records(party, counterparty, secret, right_secret, finish):
    if party == counterparty:
        counterparty += "'"
    chain = Blockchain(f"chain:{party}->{counterparty}")
    asset = Asset(f"asset@{party}->{counterparty}")
    chain.register_asset(asset, party, now=0)
    contract = SimpleTimelockContract(
        (party, counterparty), asset, hash_secret(secret), timeout=START + DELTA,
        start_time=START,
    )
    cid = chain.publish_contract(contract, party, now=START)
    shown = secret if right_secret else secret + b"!"
    try_call(chain, cid, "unlock", party, START, {"secret": secret})
    try_call(chain, cid, "unlock", counterparty, START, {"secret": bytearray(shown)})
    if finish == "claim":
        try_call(chain, cid, "claim", counterparty, START + 1)
    elif finish == "refund":
        try_call(chain, cid, "refund", party, START + DELTA)
    assert_sized(chain)


@SAMPLE
@given(
    party=names_st,
    counterparty=names_st,
    # A non-bool commit is refused (a failed call whose error carries its
    # repr) and leaves the escrow live for a later decision or refund.
    decisions=st.lists(
        st.sampled_from([True, False, 1, 0, None, "yes"]), min_size=1, max_size=3
    ),
    refund=st.booleans(),
)
def test_coordinated_escrow_records(party, counterparty, decisions, refund):
    if party == counterparty:
        counterparty += "'"
    chain = Blockchain(f"chain:{party}->{counterparty}")
    asset = Asset(f"asset@{party}->{counterparty}")
    chain.register_asset(asset, party, now=0)
    contract = CoordinatedEscrowContract(
        (party, counterparty), asset, COORDINATOR, timeout=START + DELTA
    )
    cid = chain.publish_contract(contract, party, now=START)
    try_call(chain, cid, "decide", party, START, {"commit": True})
    for commit in decisions:
        try_call(chain, cid, "decide", COORDINATOR, START, {"commit": commit})
    if refund:
        try_call(chain, cid, "refund", party, START)
        try_call(chain, cid, "refund", party, START + DELTA)
    assert_sized(chain)


class ViewOnly(Contract):
    """A contract that declares no flags: its view is encoded on every read."""

    CALLABLE = frozenset({"poke"})

    def __init__(self, asset: Asset, note: object) -> None:
        super().__init__(asset)
        self.note = note
        self.pokes = 0

    def poke(self, caller, now, **args):
        self.pokes += 1
        self.note = args or self.note
        return True

    def state_view(self):
        return {"note": self.note, "pokes": self.pokes}

    def storage_size_bytes(self):
        return 1


@SAMPLE
@given(owner=names_st, recipient=names_st, note=json_payload, args=json_payload)
def test_transfers_and_undeclared_contracts(owner, recipient, note, args):
    chain = Blockchain("chain:plain")
    chain.register_asset(Asset("coin"), owner, now=0)
    chain.transfer_asset("coin", owner, recipient, now=1)
    chain.register_asset(Asset("deed"), owner, now=1)
    cid = chain.publish_contract(ViewOnly(Asset("deed"), note), owner, now=2)
    assert try_call(chain, cid, "poke", recipient, 3, args)
    assert try_call(chain, cid, "poke", recipient, 3)
    assert_sized(chain)


def test_unsized_record_is_measured_at_append():
    chain = Blockchain("chain:plain")
    record = Record(kind="note", author="Pé", payload={"raw": b"\x01", "n": [1, None]})
    chain.ledger.append(record, 0)
    assert record.size is None
    assert chain.published_bytes() == len(canonical_encode(record.body()))


def test_unlock_args_identity_matches_a_hashkey():
    scheme = get_scheme("hmac-registry")
    pair = scheme.keygen(seed=b"k").renamed('a"b')
    relay = scheme.keygen(seed=b"r").renamed("Pé")
    hashkey = Hashkey.originate(12, b"s" * 32, pair, scheme).extend(relay, scheme)
    names = EncodedSizes()
    size = unlock_args_size(
        12, 32, sum(names[name] for name in hashkey.path), 2, 2 * scheme.signature_size
    )
    assert size == len(canonical_encode(hashkey.to_args()))
    assert object_frame() == len(canonical_encode({}))


#: Scalars of the spec: zero where the spec allows it, and multi-digit.
scalar_st = st.sampled_from([0, 1, 9, 10, 1234, 10**12])


@SAMPLE
@given(
    names=st.lists(names_st, min_size=2, max_size=12, unique=True),
    start_time=scalar_st,
    delta=scalar_st.map(lambda value: value or 1),
    diam=scalar_st.map(lambda value: value or 1),
    timeout_slack=scalar_st,
    pick=st.integers(0, 2**32),
)
@example(names=["a", "b"], start_time=0, delta=1, diam=1, timeout_slack=0, pick=0)
@example(
    names=EDGE_NAMES + [f"v{index}" for index in range(9)],
    start_time=10**12, delta=1234, diam=10, timeout_slack=9, pick=7,
)
def test_swap_view_size_at_every_flag_state(
    names, start_time, delta, diam, timeout_slack, pick
):
    """1-11 locks: every vertex of a complete digraph but the last leads.
    ``pick`` chooses the arc and the order its locks open in."""
    digraph = complete_digraph(names)
    leaders = tuple(names[:-1])
    spec = SwapSpec(
        digraph=digraph,
        leaders=leaders,
        hashlocks=tuple(hash_secret(leader.encode()) for leader in leaders),
        start_time=start_time,
        delta=delta,
        diam=diam,
        timeout_slack=timeout_slack,
    )
    rng = Random(pick)
    arc = rng.choice(digraph.arcs)
    asset = Asset(f"asset@{arc[0]}->{arc[1]}")
    chain = Blockchain(f"chain:{arc[0]}->{arc[1]}")
    chain.register_asset(asset, arc[0], now=0)
    bound = SwapContract(spec, arc, asset)
    chain.publish_contract(bound, arc[0], now=start_time)
    unbound = SwapContract(spec, arc, asset)
    order = rng.sample(range(len(leaders)), len(leaders))
    for contract, names_cache in ((bound, chain.names), (unbound, EncodedSizes())):
        for lock in [None] + order:
            if lock is not None:
                contract.unlocked[lock] = True
            for claimed, refunded, halted in itertools.product((False, True), repeat=3):
                contract.claimed, contract.refunded = claimed, refunded
                contract._halted = halted
                view = contract.state_view()
                assert contract.state_size(names_cache) == encoded_size(view), view
    assert_sized(chain)


class CountingEncoder:
    """The ledger's encoder, counting every encode of a contract view
    (or of the spec-shared members a view copies)."""

    def __init__(self, inner):
        self.inner = inner
        self.views = 0

    def encode(self, value):
        if isinstance(value, dict) and "hashlocks" in value:
            self.views += 1
        return self.inner.encode(value)


@pytest.fixture
def counted(monkeypatch):
    """``(encoder, specs)``: the counting encoder in the ledger's place,
    and every :class:`SwapSpec` built while it is installed."""
    encoder = CountingEncoder(ledger._ENCODER)
    monkeypatch.setattr(ledger, "_ENCODER", encoder)
    specs: list[SwapSpec] = []
    post_init = SwapSpec.__post_init__

    def recording(self):
        post_init(self)
        specs.append(self)

    monkeypatch.setattr(SwapSpec, "__post_init__", recording)
    return encoder, specs


def test_k4_run_encodes_the_view_once_per_spec(counted):
    encoder, specs = counted
    report = get_engine("herlihy").run(Scenario(complete_digraph(4), seed=5))
    assert report.published_bytes > 0
    assert len(specs) == 1
    assert encoder.views <= len(specs)


def test_first_sight_synthesis_encodes_the_view_once_per_spec(counted):
    encoder, specs = counted
    scenario = Scenario(complete_digraph(4), seed=5)
    prediction = analyze_scenario(scenario).prediction
    assert prediction is not None
    report = _synthesize(scenario, prediction)
    assert report.published_bytes > 0
    assert len(specs) == 1
    assert encoder.views <= len(specs)
