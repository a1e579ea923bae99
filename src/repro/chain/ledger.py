"""Append-only, hash-chained, tamper-evident ledgers.

The paper's model (§2.2) needs exactly three properties from a blockchain:
publishing is visible to everyone within ``Δ``, published items are
irrevocable, and stored bytes can be counted (for Theorem 4.10).  A
:class:`Ledger` provides the irrevocability and the accounting: records are
wrapped in blocks whose headers chain by SHA-256, so any retroactive
mutation is detectable by :meth:`Ledger.verify_integrity`.

Blocks are sealed on first read, not on append: :meth:`Ledger.append`
only checks the timestamp, adds the record's size to the byte total and
queues the record, and the first call to
:meth:`Ledger.blocks`, iteration or :meth:`Ledger.verify_integrity`
seals every queued record into its block (index, ``prev_hash``, SHA-256
``block_hash``) in append order.

Byte totals are kept as records arrive.  Compact sorted-key JSON is
compositional (:func:`object_frame`), so the chain layer
(:mod:`repro.chain.blockchain`) computes each record's encoded length
as it builds the record, from the sizes of its parts, and hands it over
as :attr:`Record.size`; :meth:`Ledger.append` adds it to a running
total.  A simulated run reads records and byte totals, never blocks, so
it encodes no whole record and hashes nothing.  The analytic fast path
(:mod:`repro.analysis.engine`) sums the same helpers, so the simulator
and the closed form share one byte model.

Visibility timing is *not* the ledger's job — the discrete-event simulator
(:mod:`repro.sim`) delivers observations with the configured delays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

from repro.crypto.hashing import sha256
from repro.errors import LedgerError, TamperError

GENESIS_HASH = bytes(32)

_BLOCK_HEADER_BYTES = 8 + 8 + 32 + 32  # index, timestamp, prev_hash, hash


def bytes_marker(value: bytes | bytearray) -> dict[str, str]:
    """The JSON form :func:`canonical_encode` gives a ``bytes`` value.

    A payload may carry this marker in place of the raw bytes and
    encodes to the same bytes, without the encoder's ``default=`` hook
    firing for it.
    """
    return {"__bytes__": value.hex()}


def _encode_bytes(value: object) -> dict[str, str]:
    if isinstance(value, (bytes, bytearray)):
        return bytes_marker(value)
    raise LedgerError(f"cannot encode {type(value).__name__} in a ledger record")


_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True, default=_encode_bytes)


def canonical_encode(payload: object) -> bytes:
    """Canonical JSON encoding used for hashing and size accounting.

    Compact separators, keys sorted, ASCII-only output, one pass of the
    C JSON encoder.  Records are dicts; any value nested in one (a bare
    name, a marked signature) encodes on its own to the bytes it takes
    inside a record.  Payload keys must be ``str`` at every depth: the
    encoder sorts keys, so a mix of key types fails and a lone non-str
    key would be converted by JSON's rules rather than rejected.  Tuples
    encode as lists.  ``bytes``/``bytearray`` values at any depth encode
    as ``{"__bytes__": "<hex>"}``; a payload dict that itself holds
    exactly that one key and a hex string encodes to the same bytes, so
    the marker is only injective over the shapes the library produces.
    That same equality lets a caller pre-mark values with
    :func:`bytes_marker` and skip the per-value ``default=`` call; the
    ledger stays the one owner of the format, and of the size identity
    below (:func:`object_frame` and its siblings), which sizes a record
    from its parts without encoding it.  Any other unsupported value
    raises :class:`LedgerError`.
    """
    return _ENCODER.encode(payload).encode()


def encoded_size(value: object) -> int:
    """``len(canonical_encode(value))``: the encoder's own measure."""
    return len(_ENCODER.encode(value))


class EncodedSizes(dict[str, int]):
    """Encoded lengths of the strings one run names, each measured once.

    ``sizes[text]`` is ``len(canonical_encode(text))`` (quotes, escapes
    and ``\\uXXXX`` widening included); a miss measures it with the
    encoder.  A cache lives as long as its network (or one synthesis),
    so a long-lived process keeps no names of runs it has finished.
    """

    def __missing__(self, text: str) -> int:
        size = self[text] = len(_ENCODER.encode(text))
        return size


def object_frame(*keys: str) -> int:
    """Bytes a JSON object with ``keys`` encodes to besides its values.

    The compact sorted-key encoding is compositional: for ``n >= 1``
    members, ``len(enc({k: v, ...})) = 1 + n + Σ (len(enc(k)) + 1 +
    len(enc(v)))`` (two braces, ``n - 1`` commas, ``n`` colons).  So an
    object's encoded length is this frame plus its values' lengths,
    whatever order the keys are given in.  ``{}`` is 2 bytes.
    """
    if not keys:
        return 2
    return 1 + len(keys) + sum(len(_ENCODER.encode(key)) + 1 for key in keys)


def array_size(items_size: int, count: int) -> int:
    """Encoded length of a JSON array of ``count`` items whose encodings
    total ``items_size`` bytes."""
    return items_size + count + 1 if count else 2


def bools_size(*flags: bool) -> int:
    """Encoded length of the values ``flags``: ``true`` is 4 bytes, one
    fewer than ``false``."""
    return 5 * len(flags) - sum(flags)


def int_size(value: int) -> int:
    """Encoded length of an ``int`` (never a ``bool``)."""
    return len(str(value))


_BYTES_FRAME = len(_ENCODER.encode(bytes_marker(b"")))


def bytes_size(length: int, count: int = 1) -> int:
    """Encoded length of ``count`` ``bytes`` values totalling ``length``
    bytes: one :func:`bytes_marker` each, two hex digits per byte."""
    return _BYTES_FRAME * count + 2 * length


_RECORD_FRAME = object_frame("author", "kind", "payload")


def record_frame(kind: str, *payload_keys: str) -> int:
    """Bytes of a ``kind`` record whose payload has ``payload_keys``,
    besides its author and its payload's values: add those encoded
    lengths to get ``len(canonical_encode(record.body()))``."""
    return _RECORD_FRAME + len(_ENCODER.encode(kind)) + object_frame(*payload_keys)


def record_size(kind_size: int, author_size: int, payload_size: int) -> int:
    """Encoded length of a record body from its three members' lengths."""
    return _RECORD_FRAME + kind_size + author_size + payload_size


def canonical_encoded_total(payloads: list[dict]) -> int:
    """``sum(len(canonical_encode(p)) for p in payloads)``, in one pass.

    The compact encoding of a list is its items' encodings joined by
    ``,`` inside ``[`` ``]``, and the output is ASCII, so the sum is the
    list's encoded length less those ``len(payloads) + 1`` bytes.
    """
    if not payloads:
        return 0
    return len(_ENCODER.encode(payloads)) - len(payloads) - 1


@dataclass(frozen=True)
class Record:
    """One logical entry on a ledger.

    Attributes:
        kind: Record type, e.g. ``contract_published`` or ``contract_call``.
        author: Address of the party that submitted the record.
        payload: JSON-compatible body with ``str`` keys (bytes values
            allowed, hex-encoded; see :func:`canonical_encode`).
        size: ``len(self.encoded())`` when the producer knows it (the
            chain layer computes it as it builds the record), else
            ``None`` and the ledger measures the body at append.  A copy
            with a changed payload must not carry the old size.
    """

    kind: str
    author: str
    payload: dict
    size: int | None = field(default=None, compare=False, repr=False)

    def encoded(self) -> bytes:
        """The record's canonical encoding, computed once and cached.

        The block hash and block sizing read it; the ledger's byte total
        does not (it adds :attr:`size`).
        A record is logically immutable (the dataclass is frozen and the
        ledger never rewrites payloads), so the cache rides on the
        instance via ``object.__setattr__``; a forged record is a fresh
        instance whose encoding comes from its own tampered payload.
        The payload follows :func:`canonical_encode`'s contract: ``str``
        keys, and ``bytes`` values marked as ``{"__bytes__": hex}``.
        """
        cached: bytes | None = getattr(self, "_encoded", None)
        if cached is None:
            cached = canonical_encode(self.body())
            object.__setattr__(self, "_encoded", cached)
        return cached

    def body(self) -> dict:
        """The dict :meth:`encoded` encodes: kind, author and payload."""
        return {"kind": self.kind, "author": self.author, "payload": self.payload}

    def encoded_size_bytes(self) -> int:
        return len(self.encoded())


@dataclass(frozen=True)
class Block:
    """A sealed block: header plus records, hash-chained to its parent."""

    index: int
    timestamp: int
    prev_hash: bytes
    records: tuple[Record, ...]
    block_hash: bytes = field(repr=False)

    @staticmethod
    def compute_hash(
        index: int, timestamp: int, prev_hash: bytes, records: tuple[Record, ...]
    ) -> bytes:
        body = b"".join(record.encoded() for record in records)
        header = (
            index.to_bytes(8, "big")
            + timestamp.to_bytes(8, "big", signed=True)
            + prev_hash
        )
        return sha256(header + body)

    def encoded_size_bytes(self) -> int:
        return _BLOCK_HEADER_BYTES + sum(r.encoded_size_bytes() for r in self.records)


class Ledger:
    """An append-only chain of blocks, sealed on first read.

    Each record gets its own block — a simplification (real chains
    batch) that keeps the simulator's publish/observe timing exact while
    preserving hash-chaining and byte-accounting semantics.  Timestamps
    must be non-decreasing.  :meth:`append` queues ``(record,
    timestamp)``; :meth:`blocks`, iteration and :meth:`verify_integrity`
    seal the queue onto the chain tip first, so a block's hashes are the
    ones an eager seal at append time would have produced — provided no
    payload is mutated after it is appended.
    """

    def __init__(self, ledger_id: str) -> None:
        self.ledger_id = ledger_id
        self._blocks: list[Block] = []
        self._pending: list[tuple[Record, int]] = []
        self._tip_timestamp: int | None = None
        self._record_bytes = 0

    def append(self, record: Record, timestamp: int) -> None:
        """Queue ``record`` for its own block at ``timestamp`` and add its
        encoded length (:attr:`Record.size`, or the encoder's measure of
        its body when that is unknown) to the ledger's byte total."""
        tip = self._tip_timestamp
        if tip is not None and timestamp < tip:
            raise LedgerError(
                f"timestamp {timestamp} is earlier than the chain tip ({tip})"
            )
        size = record.size
        self._record_bytes += encoded_size(record.body()) if size is None else size
        self._tip_timestamp = timestamp
        self._pending.append((record, timestamp))

    def _seal(self) -> list[Block]:
        """Seal every queued record onto the chain tip; returns the chain."""
        blocks = self._blocks
        if self._pending:
            prev_hash = blocks[-1].block_hash if blocks else GENESIS_HASH
            for record, timestamp in self._pending:
                index = len(blocks)
                records = (record,)
                block_hash = Block.compute_hash(index, timestamp, prev_hash, records)
                blocks.append(Block(index, timestamp, prev_hash, records, block_hash))
                prev_hash = block_hash
            self._pending.clear()
        return blocks

    # -- reading -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._blocks) + len(self._pending)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._seal())

    def blocks(self) -> tuple[Block, ...]:
        return tuple(self._seal())

    def records(self) -> list[Record]:
        sealed = [record for block in self._blocks for record in block.records]
        return sealed + [record for record, _ in self._pending]

    def records_of_kind(self, kind: str) -> list[Record]:
        return [record for record in self.records() if record.kind == kind]

    # -- integrity and accounting ---------------------------------------------

    def verify_integrity(self) -> None:
        """Raise :class:`TamperError` if any block fails hash validation."""
        prev_hash = GENESIS_HASH
        for position, block in enumerate(self._seal()):
            if block.index != position:
                raise TamperError(
                    f"{self.ledger_id}: block at position {position} claims "
                    f"index {block.index}"
                )
            if block.prev_hash != prev_hash:
                raise TamperError(
                    f"{self.ledger_id}: block {position} does not chain to "
                    "its predecessor"
                )
            expected = Block.compute_hash(
                block.index, block.timestamp, block.prev_hash, block.records
            )
            if block.block_hash != expected:
                raise TamperError(
                    f"{self.ledger_id}: block {position} contents do not "
                    "match its hash"
                )
            prev_hash = block.block_hash

    def record_bytes(self) -> int:
        """Total canonical-encoding bytes of every record on this ledger:
        the running total :meth:`append` keeps.  Encodes nothing and
        reads no block."""
        return self._record_bytes

    def total_size_bytes(self) -> int:
        """Total bytes stored on this ledger (Theorem 4.10 accounting):
        every record's encoding plus one block header per record."""
        return self.record_bytes() + _BLOCK_HEADER_BYTES * len(self)
