"""Nested signature chains for hashkeys (paper §4.1).

A hashkey for hashlock ``h`` on arc ``(u, v)`` is a triple ``(s, p, σ)``
where ``p = (u0, ..., uk)`` is a path from the counterparty ``u0 = v`` to
the leader ``uk`` who generated ``s``, and::

    σ = sig(... sig(s, uk) ..., u0)

i.e. the leader signs the secret, and each successive party on the path
(walking from the leader back towards the counterparty) signs the previous
signature.  Because real signatures cannot be "peeled", the chain keeps
every layer: ``layers[j]`` is the signature produced by path vertex ``uj``,
so ``layers[k]`` is the leader's innermost signature over the secret and
``layers[0]`` the outermost signature by the counterparty.

Messages are domain-separated so a signature over a secret can never be
confused with a signature over another signature.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.keys import KeyDirectory, KeyPair
from repro.crypto.signatures import SignatureScheme
from repro.errors import SignatureError, UnknownKeyError

_TAG_SECRET = b"repro/hashkey/secret/v1:"
_TAG_EXTEND = b"repro/hashkey/extend/v1:"


def _secret_message(secret: bytes) -> bytes:
    return _TAG_SECRET + secret


def _extend_message(inner_signature: bytes) -> bytes:
    return _TAG_EXTEND + inner_signature


@dataclass(frozen=True)
class SignatureChain:
    """An immutable nested-signature chain.

    ``layers[j]`` is the signature contributed by the ``j``-th vertex of the
    associated path (``j = 0`` is the outermost signer, ``j = len - 1`` the
    leader).  The chain does not store the path itself: the contract receives
    the path separately (Fig. 5) and verification binds them together.
    """

    layers: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise SignatureError("a signature chain needs at least one layer")

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def outermost(self) -> bytes:
        """The most recent signature — what the next signer signs over."""
        return self.layers[0]


def sign_secret(secret: bytes, keypair: KeyPair, scheme: SignatureScheme) -> SignatureChain:
    """Create the innermost layer: the leader signs its own secret."""
    return SignatureChain(layers=(scheme.sign(_secret_message(secret), keypair),))


def extend_chain(
    chain: SignatureChain, keypair: KeyPair, scheme: SignatureScheme
) -> SignatureChain:
    """Prepend a layer: the next party on the path signs the outermost layer.

    This is the paper's ``sig(σ, v)`` step performed by each party that
    relays a secret during Phase Two.
    """
    new_layer = scheme.sign(_extend_message(chain.outermost), keypair)
    return SignatureChain(layers=(new_layer,) + chain.layers)


def verify_chain(
    chain: SignatureChain,
    secret: bytes,
    path: tuple[str, ...],
    directory: KeyDirectory,
    schemes: dict[str, SignatureScheme],
) -> bool:
    """Verify a chain against a secret and a path of addresses.

    ``path[0]`` is the counterparty presenting the hashkey and ``path[-1]``
    the leader who generated ``secret``; this matches the contract's
    ``verifySigs(sig, s, path)`` check (Fig. 5 line 31).  Each path vertex's
    public key and scheme come from the published key ``directory``; the
    ``schemes`` mapping supplies scheme instances by name.

    Returns ``False`` if any layer fails; raises :class:`SignatureError`
    for structural mismatches (chain/path length disagreement, missing
    scheme) and propagates :class:`UnknownKeyError` from the directory.
    """
    if len(chain) != len(path):
        return False
    if not path:
        return False
    # Innermost layer: leader over the secret.
    leader = path[-1]
    if not _verify_layer(
        chain.layers[-1], _secret_message(secret), leader, directory, schemes
    ):
        return False
    # Every other layer signs the layer inside it.
    for j in range(len(path) - 2, -1, -1):
        message = _extend_message(chain.layers[j + 1])
        if not _verify_layer(chain.layers[j], message, path[j], directory, schemes):
            return False
    return True


def _verify_layer(
    signature: bytes,
    message: bytes,
    address: str,
    directory: KeyDirectory,
    schemes: dict[str, SignatureScheme],
) -> bool:
    try:
        public_key = directory.public_key(address)
        scheme_name = directory.scheme(address)
    except KeyError:
        return False
    scheme = schemes.get(scheme_name)
    if scheme is None:
        raise SignatureError(
            f"no scheme instance supplied for {scheme_name!r} "
            f"(needed to verify a layer by {address})"
        )
    try:
        return scheme.verify(message, signature, public_key)
    except (SignatureError, UnknownKeyError):
        return False
