"""Unit tests for hashkey signature chains."""

import pytest

from repro.crypto.keys import KeyDirectory
from repro.crypto.sigchain import (
    SignatureChain,
    extend_chain,
    sign_secret,
    verify_chain,
)
from repro.crypto.signatures import get_scheme
from repro.errors import SignatureError

SECRET = b"s" * 32


@pytest.fixture(params=["hmac-registry", "ecdsa-secp256k1"])
def env(request):
    """A scheme, three named key pairs, and a populated directory."""
    scheme = get_scheme(request.param)
    pairs = {
        name: scheme.keygen(seed=name.encode()).renamed(name)
        for name in ["Alice", "Bob", "Carol"]
    }
    directory = KeyDirectory()
    for pair in pairs.values():
        directory.register(pair)
    return scheme, pairs, directory


def build_chain(scheme, pairs, path):
    """Leader (last in path) signs first, then each extends inward."""
    chain = sign_secret(SECRET, pairs[path[-1]], scheme)
    for name in reversed(path[:-1]):
        chain = extend_chain(chain, pairs[name], scheme)
    return chain


class TestConstruction:
    def test_leader_only_chain(self, env):
        scheme, pairs, directory = env
        chain = sign_secret(SECRET, pairs["Alice"], scheme)
        assert len(chain) == 1
        assert verify_chain(chain, SECRET, ("Alice",), directory, {scheme.name: scheme})

    def test_extension_grows_chain(self, env):
        scheme, pairs, _ = env
        chain = build_chain(scheme, pairs, ("Carol", "Bob", "Alice"))
        assert len(chain) == 3

    def test_empty_chain_rejected(self):
        with pytest.raises(SignatureError):
            SignatureChain(layers=())

    def test_encoded_size(self, env):
        scheme, pairs, _ = env
        chain = build_chain(scheme, pairs, ("Bob", "Alice"))
        assert sum(map(len, chain.layers)) == 2 * scheme.signature_size


class TestVerification:
    def test_two_hop_roundtrip(self, env):
        scheme, pairs, directory = env
        chain = build_chain(scheme, pairs, ("Bob", "Alice"))
        assert verify_chain(
            chain, SECRET, ("Bob", "Alice"), directory, {scheme.name: scheme}
        )

    def test_three_hop_roundtrip(self, env):
        scheme, pairs, directory = env
        path = ("Carol", "Bob", "Alice")
        chain = build_chain(scheme, pairs, path)
        assert verify_chain(chain, SECRET, path, directory, {scheme.name: scheme})

    def test_wrong_secret_rejected(self, env):
        scheme, pairs, directory = env
        chain = build_chain(scheme, pairs, ("Bob", "Alice"))
        assert not verify_chain(
            chain, b"x" * 32, ("Bob", "Alice"), directory, {scheme.name: scheme}
        )

    def test_wrong_path_order_rejected(self, env):
        scheme, pairs, directory = env
        chain = build_chain(scheme, pairs, ("Bob", "Alice"))
        assert not verify_chain(
            chain, SECRET, ("Alice", "Bob"), directory, {scheme.name: scheme}
        )

    def test_path_length_mismatch_rejected(self, env):
        scheme, pairs, directory = env
        chain = build_chain(scheme, pairs, ("Bob", "Alice"))
        assert not verify_chain(
            chain, SECRET, ("Carol", "Bob", "Alice"), directory, {scheme.name: scheme}
        )

    def test_empty_path_rejected(self, env):
        scheme, pairs, directory = env
        chain = build_chain(scheme, pairs, ("Bob", "Alice"))
        assert not verify_chain(chain, SECRET, (), directory, {scheme.name: scheme})

    def test_substituted_signer_rejected(self, env):
        # Carol's chain presented as if Bob had signed the outer layer.
        scheme, pairs, directory = env
        chain = build_chain(scheme, pairs, ("Carol", "Alice"))
        assert not verify_chain(
            chain, SECRET, ("Bob", "Alice"), directory, {scheme.name: scheme}
        )

    def test_tampered_inner_layer_rejected(self, env):
        scheme, pairs, directory = env
        chain = build_chain(scheme, pairs, ("Bob", "Alice"))
        tampered = SignatureChain(
            layers=(chain.layers[0], b"\x00" * len(chain.layers[1]))
        )
        assert not verify_chain(
            tampered, SECRET, ("Bob", "Alice"), directory, {scheme.name: scheme}
        )

    def test_unknown_address_rejected(self, env):
        scheme, pairs, directory = env
        chain = build_chain(scheme, pairs, ("Bob", "Alice"))
        assert not verify_chain(
            chain, SECRET, ("Mallory", "Alice"), directory, {scheme.name: scheme}
        )

    def test_missing_scheme_instance_raises(self, env):
        scheme, pairs, directory = env
        chain = build_chain(scheme, pairs, ("Bob", "Alice"))
        with pytest.raises(SignatureError):
            verify_chain(chain, SECRET, ("Bob", "Alice"), directory, {})

    def test_layer_cannot_double_as_secret_signature(self, env):
        # Domain separation: a one-layer chain whose layer actually signs an
        # extension message must not verify as a secret signature.
        scheme, pairs, directory = env
        two = build_chain(scheme, pairs, ("Bob", "Alice"))
        outer_only = SignatureChain(layers=(two.layers[0],))
        assert not verify_chain(
            outer_only, SECRET, ("Bob",), directory, {scheme.name: scheme}
        )
