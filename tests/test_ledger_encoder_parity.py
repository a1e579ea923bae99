"""The C-backed canonical encoder against the recursive reference.

Every payload the library encodes while each registered engine runs a
families x adversary-mix grid must come out byte-identical to
:func:`ledger_reference.reference_encode`, the encoding the ledger used
before it switched to one module-level ``json.JSONEncoder``.
"""

import pytest
from ledger_reference import record_corpus, reference_encode

from repro.api import list_engines
from repro.chain.ledger import canonical_encode
from repro.errors import LedgerError


@pytest.fixture(scope="module")
def corpus():
    return record_corpus()


def test_every_engine_contributes_records(corpus):
    payloads, ran = corpus
    assert ran == set(list_engines())
    assert len(payloads) > 1000


def test_corpus_bytes_match_reference(corpus):
    payloads, _ = corpus
    mismatched = [p for p in payloads if canonical_encode(p) != reference_encode(p)]
    assert not mismatched, mismatched[:3]


@pytest.mark.parametrize(
    "payload",
    [
        {"x": [1, object()]},
        {"x": {"y": {"z": object()}}},
        {"x": ({"y": [set()]},)},
        {"x": [{"y": b"ok"}, {"z": frozenset()}]},
    ],
)
def test_unsupported_value_rejected_at_any_depth(payload):
    with pytest.raises(LedgerError):
        canonical_encode(payload)
    with pytest.raises(LedgerError):
        reference_encode(payload)


def test_bytes_marker_at_depth():
    payload = {"a": [b"\x00\xff", {"b": bytearray(b"\x10")}], "c": (b"",)}
    assert canonical_encode(payload) == (
        b'{"a":[{"__bytes__":"00ff"},{"b":{"__bytes__":"10"}}],"c":[{"__bytes__":""}]}'
    )
    assert canonical_encode(payload) == reference_encode(payload)
