"""Hashkeys: path-scoped, signature-chained secrets (§4.1).

A hashkey for hashlock ``h`` on an arc is a triple ``(s, p, σ)``: the
secret, a path from the presenting counterparty to the leader who generated
``s``, and the nested signature chain of every party on the path.  Its
deadline grows with the path length — ``(diam(D) + |p|)·Δ`` after start —
which is the mechanism that lets different parties enjoy different
timeouts on the *same* hashlock, solving the cyclic-follower problem of
Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.chain.ledger import (
    EncodedSizes,
    array_size,
    bytes_size,
    int_size,
    object_frame,
)
from repro.crypto.hashing import matches
from repro.crypto.keys import KeyPair
from repro.crypto.sigchain import (
    SignatureChain,
    extend_chain,
    sign_secret,
    verify_chain,
)
from repro.crypto.signatures import SignatureScheme
from repro.core.spec import SwapSpec
from repro.errors import InvalidHashkeyError

_UNLOCK_ARGS_FRAME = object_frame("lock_index", "path", "secret", "sig_layers")


def unlock_args_size(
    lock_index: int, secret_size: int, names_size: int, hops: int, signatures_size: int
) -> int:
    """``len(canonical_encode(args))`` for :meth:`Hashkey.to_args` ``args``.

    Follows, by the ledger's size identity, from the lock index, the
    secret's width, the path's ``hops`` names (their encoded lengths
    summing to ``names_size``) and its ``hops`` signatures (their widths
    summing to ``signatures_size``: a scheme's fixed ``signature_size``
    per hop).
    """
    return (
        _UNLOCK_ARGS_FRAME
        + int_size(lock_index)
        + bytes_size(secret_size)
        + array_size(names_size, hops)
        + array_size(bytes_size(signatures_size, hops), hops)
    )


def wire_args_size(args: dict[str, Any], names: EncodedSizes) -> int | None:
    """:func:`unlock_args_size` of ``args`` when they have the shape
    :meth:`Hashkey.to_args` gives (names sized through ``names``), else
    ``None``: the caller measures any other shape with the encoder."""
    lock_index = args.get("lock_index")
    secret = args.get("secret")
    path = args.get("path")
    layers = args.get("sig_layers")
    if not (
        len(args) == 4
        and type(lock_index) is int
        and type(secret) is bytes
        and type(path) is list
        and type(layers) is list
        and len(path) == len(layers)
    ):
        return None
    names_size = 0
    for name in path:
        if type(name) is not str:
            return None
        names_size += names[name]
    signatures_size = 0
    for layer in layers:
        if type(layer) is not bytes:
            return None
        signatures_size += len(layer)
    return unlock_args_size(lock_index, len(secret), names_size, len(path), signatures_size)


@dataclass(frozen=True)
class Hashkey:
    """The triple ``(s, p, σ)`` presented to a contract's ``unlock``.

    Attributes:
        lock_index: Which hashlock of the spec's vector this key opens.
        secret: The leader's secret ``s``.
        path: ``(u0, ..., uk)`` — addresses from presenter to leader.
        sig_chain: One signature per path vertex (see
            :mod:`repro.crypto.sigchain`).
    """

    lock_index: int
    secret: bytes
    path: tuple[str, ...]
    sig_chain: SignatureChain

    def __post_init__(self) -> None:
        if not self.path:
            raise InvalidHashkeyError("hashkey path cannot be empty")
        if len(self.sig_chain) != len(self.path):
            raise InvalidHashkeyError(
                f"signature chain has {len(self.sig_chain)} layers for a "
                f"path of {len(self.path)} vertices"
            )

    @property
    def path_length(self) -> int:
        """``|p|``: the number of arcs, i.e. vertices minus one."""
        return len(self.path) - 1

    @property
    def presenter(self) -> str:
        """The counterparty this hashkey is valid for (``u0``)."""
        return self.path[0]

    @property
    def leader(self) -> str:
        return self.path[-1]

    def deadline(self, spec: SwapSpec) -> int:
        return spec.hashkey_deadline(self.path_length)

    # -- construction ------------------------------------------------------------

    @classmethod
    def originate(
        cls,
        lock_index: int,
        secret: bytes,
        leader_keypair: KeyPair,
        scheme: SignatureScheme,
    ) -> "Hashkey":
        """The leader's degenerate hashkey: path ``(v_i)``, ``|p| = 0``.

        §4.5: "at the start of the phase, v_i calls unlock(s_i, v_i,
        sig(s_i, v_i)) at each entering arc's contract".
        """
        return cls(
            lock_index=lock_index,
            secret=secret,
            path=(leader_keypair.address,),
            sig_chain=sign_secret(secret, leader_keypair, scheme),
        )

    def extend(self, keypair: KeyPair, scheme: SignatureScheme) -> "Hashkey":
        """``(s, v + p, sig(σ, v))`` — the relay step of Phase Two."""
        if keypair.address in self.path[:-1] or keypair.address == self.path[-1]:
            raise InvalidHashkeyError(
                f"{keypair.address} already appears in the hashkey path"
            )
        return Hashkey(
            lock_index=self.lock_index,
            secret=self.secret,
            path=(keypair.address,) + self.path,
            sig_chain=extend_chain(self.sig_chain, keypair, scheme),
        )

    # -- validation (the contract-side checks of Fig. 5) -----------------------------

    def verify(self, spec: SwapSpec, counterparty: str, now: int) -> None:
        """Run every unlock-time check; raise :class:`InvalidHashkeyError`.

        Mirrors Fig. 5 lines 28-31 in order: deadline, secret, path,
        signatures.
        """
        deadline = self.deadline(spec)
        if now >= deadline:
            raise InvalidHashkeyError(
                f"hashkey timed out: now={now} >= deadline={deadline} "
                f"(|p|={self.path_length})"
            )
        if not 0 <= self.lock_index < spec.lock_count():
            raise InvalidHashkeyError(f"no hashlock {self.lock_index}")
        if not matches(spec.hashlocks[self.lock_index], self.secret):
            raise InvalidHashkeyError("secret does not match hashlock")
        if not spec.is_valid_hashkey_path(self.path, self.lock_index, counterparty):
            raise InvalidHashkeyError(
                f"path {self.path!r} is not a digraph path from "
                f"{counterparty} to leader {spec.leader_of_lock(self.lock_index)}"
            )
        if not verify_chain(
            self.sig_chain, self.secret, self.path, spec.directory, spec.schemes
        ):
            raise InvalidHashkeyError("signature chain verification failed")

    # -- wire format --------------------------------------------------------------

    def to_args(self) -> dict:
        """Contract-call arguments (canonically encodable)."""
        return {
            "lock_index": self.lock_index,
            "secret": self.secret,
            "path": list(self.path),
            "sig_layers": list(self.sig_chain.layers),
        }

    @classmethod
    def from_args(cls, args: dict) -> "Hashkey":
        return cls(
            lock_index=args["lock_index"],
            secret=args["secret"],
            path=tuple(args["path"]),
            sig_chain=SignatureChain(layers=tuple(args["sig_layers"])),
        )
