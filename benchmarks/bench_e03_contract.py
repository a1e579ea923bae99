"""E3 — Figures 4 & 5: the Swap contract's validation matrix.

Exercises every clause of ``unlock``/``refund``/``claim`` directly against
a hosted contract and reports which inputs each clause accepts/rejects —
the executable counterpart of the pseudocode listing.  Also times the full
unlock path (deadline check + hash + path check + signature chain).
"""

import pytest
from _tables import emit_table

from repro.chain.assets import Asset
from repro.chain.blockchain import Blockchain
from repro.core.contract import SwapContract
from repro.core.hashkey import Hashkey
from repro.core.spec import SwapSpec
from repro.crypto.hashing import hash_secret
from repro.crypto.keys import KeyDirectory
from repro.crypto.signatures import get_scheme
from repro.digraph.generators import triangle
from repro.digraph.paths import diameter
from repro.errors import ContractError

DELTA = 1000
SECRET = b"s" * 32


def build_world(scheme_name="ecdsa-secp256k1"):
    scheme = get_scheme(scheme_name)
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
    contract = SwapContract(spec, ("Carol", "Alice"), asset)
    cid = chain.publish_contract(contract, "Carol", now=DELTA)
    hashkey = Hashkey.originate(0, SECRET, pairs["Alice"], scheme)
    return spec, chain, contract, cid, hashkey, pairs, scheme


CASES = [
    # (label, method, caller, time_fn, args_fn, expect_ok)
    ("unlock: valid hashkey", "unlock", "Alice",
     lambda s, hk: s.start_time, lambda hk: hk.to_args(), True),
    ("unlock: wrong caller (line 27)", "unlock", "Carol",
     lambda s, hk: s.start_time, lambda hk: hk.to_args(), False),
    ("unlock: expired (line 28)", "unlock", "Alice",
     lambda s, hk: hk.deadline(s), lambda hk: hk.to_args(), False),
    ("unlock: wrong secret (line 29)", "unlock", "Alice",
     lambda s, hk: s.start_time,
     lambda hk: {**hk.to_args(), "secret": b"x" * 32}, False),
    ("unlock: invalid path (line 30)", "unlock", "Alice",
     lambda s, hk: s.start_time,
     lambda hk: {**hk.to_args(), "path": ["Bob", "Alice"]}, False),
    ("unlock: forged signature (line 31)", "unlock", "Alice",
     lambda s, hk: s.start_time,
     lambda hk: {**hk.to_args(), "sig_layers": [b"\x00" * 64]}, False),
    ("refund: before timeout (line 37)", "refund", "Carol",
     lambda s, hk: s.start_time, None, False),
    ("refund: wrong caller (line 36)", "refund", "Alice",
     lambda s, hk: s.lock_final_timeout(("Carol", "Alice"), 0), None, False),
    ("refund: after final timeout", "refund", "Carol",
     lambda s, hk: s.lock_final_timeout(("Carol", "Alice"), 0), None, True),
    ("claim: while locked (line 44)", "claim", "Alice",
     lambda s, hk: s.start_time, None, False),
]


def run_case(case):
    label, method, caller, time_fn, args_fn, expect_ok = case
    spec, chain, contract, cid, hashkey, _, _ = build_world("hmac-registry")
    now = time_fn(spec, hashkey)
    args = args_fn(hashkey) if args_fn else {}
    try:
        chain.call(cid, method, caller, now, args)
        return label, True, expect_ok
    except ContractError as error:
        return label, False, expect_ok


def run_matrix():
    return [run_case(case) for case in CASES]


def test_fig4_5_contract_validation_matrix(benchmark):
    outcomes = benchmark.pedantic(run_matrix, rounds=2, iterations=1)
    rows = [
        [label, "accepted" if ok else "rejected",
         "accepted" if expected else "rejected",
         "OK" if ok == expected else "MISMATCH"]
        for label, ok, expected in outcomes
    ]
    emit_table(
        "E03",
        "Figures 4-5: Swap contract validation matrix",
        ["call", "contract said", "paper says", "match"],
        rows,
    )
    assert all(ok == expected for _, ok, expected in outcomes)


def unlock_once():
    spec, chain, contract, cid, hashkey, _, _ = build_world("ecdsa-secp256k1")
    chain.call(cid, "unlock", "Alice", spec.start_time, hashkey.to_args())
    return contract


def test_unlock_cost_with_real_ecdsa(benchmark):
    contract = benchmark.pedantic(unlock_once, rounds=3, iterations=1)
    assert contract.unlocked[0]
