"""Unit tests for hashkeys: origination, extension, verification, wire format."""

import pytest

from repro.chain.ledger import EncodedSizes, canonical_encode
from repro.core.hashkey import Hashkey, wire_args_size
from repro.core.spec import SwapSpec
from repro.crypto.hashing import hash_secret
from repro.crypto.keys import KeyDirectory
from repro.crypto.signatures import get_scheme
from repro.digraph.generators import triangle
from repro.digraph.paths import diameter
from repro.errors import InvalidHashkeyError

DELTA = 1000
SECRET = b"s" * 32


@pytest.fixture
def env():
    """Spec for the triangle with leader Alice, plus key pairs."""
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
    return spec, pairs, scheme


def originate(env):
    spec, pairs, scheme = env
    return Hashkey.originate(0, SECRET, pairs["Alice"], scheme)


class TestConstruction:
    def test_originate_degenerate(self, env):
        key = originate(env)
        assert key.path == ("Alice",)
        assert key.path_length == 0
        assert key.presenter == "Alice" and key.leader == "Alice"

    def test_extend_prepends(self, env):
        spec, pairs, scheme = env
        key = originate(env).extend(pairs["Carol"], scheme)
        assert key.path == ("Carol", "Alice")
        assert key.path_length == 1
        assert len(key.sig_chain) == 2

    def test_extend_rejects_duplicates(self, env):
        spec, pairs, scheme = env
        key = originate(env).extend(pairs["Carol"], scheme)
        with pytest.raises(InvalidHashkeyError):
            key.extend(pairs["Carol"], scheme)

    def test_chain_path_length_mismatch_rejected(self, env):
        key = originate(env)
        with pytest.raises(InvalidHashkeyError):
            Hashkey(
                lock_index=0,
                secret=SECRET,
                path=("Carol", "Alice"),
                sig_chain=key.sig_chain,
            )

    def test_empty_path_rejected(self, env):
        key = originate(env)
        with pytest.raises(InvalidHashkeyError):
            Hashkey(lock_index=0, secret=SECRET, path=(), sig_chain=key.sig_chain)


class TestDeadlines:
    def test_deadline_grows_with_path(self, env):
        spec, pairs, scheme = env
        base = originate(env)
        extended = base.extend(pairs["Carol"], scheme)
        assert extended.deadline(spec) == base.deadline(spec) + DELTA


class TestVerify:
    def test_leader_key_verifies(self, env):
        spec, _, _ = env
        originate(env).verify(spec, "Alice", now=spec.start_time)

    def test_relay_chain_verifies(self, env):
        spec, pairs, scheme = env
        key = originate(env).extend(pairs["Carol"], scheme).extend(pairs["Bob"], scheme)
        key.verify(spec, "Bob", now=spec.start_time)

    def test_expired_rejected(self, env):
        spec, _, _ = env
        key = originate(env)
        with pytest.raises(InvalidHashkeyError, match="timed out"):
            key.verify(spec, "Alice", now=key.deadline(spec))

    def test_wrong_secret_rejected(self, env):
        spec, pairs, scheme = env
        key = Hashkey.originate(0, b"x" * 32, pairs["Alice"], scheme)
        with pytest.raises(InvalidHashkeyError, match="secret"):
            key.verify(spec, "Alice", now=spec.start_time)

    def test_wrong_counterparty_rejected(self, env):
        spec, _, _ = env
        key = originate(env)
        with pytest.raises(InvalidHashkeyError, match="path"):
            key.verify(spec, "Bob", now=spec.start_time)

    def test_bad_lock_index_rejected(self, env):
        spec, pairs, scheme = env
        key = Hashkey(
            lock_index=3,
            secret=SECRET,
            path=("Alice",),
            sig_chain=originate(env).sig_chain,
        )
        with pytest.raises(InvalidHashkeyError):
            key.verify(spec, "Alice", now=spec.start_time)

    def test_forged_signature_rejected(self, env):
        spec, pairs, scheme = env
        # Bob forges: he extends with his own key but claims Carol's slot.
        key = originate(env).extend(pairs["Bob"], scheme)
        forged = Hashkey(
            lock_index=0,
            secret=SECRET,
            path=("Carol", "Alice"),
            sig_chain=key.sig_chain,
        )
        with pytest.raises(InvalidHashkeyError, match="signature|path"):
            forged.verify(spec, "Carol", now=spec.start_time)

    def test_shortcut_path_rejected_without_broadcast(self, env):
        spec, pairs, scheme = env
        # (Bob, Alice) is not an arc of the triangle.
        key = originate(env).extend(pairs["Bob"], scheme)
        with pytest.raises(InvalidHashkeyError, match="path"):
            key.verify(spec, "Bob", now=spec.start_time)


class TestWireFormat:
    def test_roundtrip(self, env):
        spec, pairs, scheme = env
        key = originate(env).extend(pairs["Carol"], scheme)
        restored = Hashkey.from_args(key.to_args())
        assert restored == key

    def test_malformed_args(self):
        with pytest.raises((InvalidHashkeyError, KeyError)):
            Hashkey.from_args({"lock_index": 0})

    def test_encoded_size_grows_with_path(self, env):
        spec, pairs, scheme = env
        base = originate(env)
        extended = base.extend(pairs["Carol"], scheme)
        sizes = {
            key: wire_args_size(key.to_args(), EncodedSizes()) for key in (base, extended)
        }
        for key, size in sizes.items():
            assert size == len(canonical_encode(key.to_args()))
        assert sizes[extended] > sizes[base]
