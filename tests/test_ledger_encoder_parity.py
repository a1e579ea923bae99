"""The C-backed canonical encoder against the recursive reference.

The body of every record on every ledger, while each registered engine
runs a families x adversary-mix grid, must come out byte-identical to
:func:`ledger_reference.reference_encode`, the encoding the ledger used
before it switched to one module-level ``json.JSONEncoder``.
"""

import pytest
from ledger_reference import record_corpus, reference_encode

from repro.api import list_engines
from repro.chain.ledger import bytes_marker, canonical_encode, canonical_encoded_total
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


def _premarked(value):
    """``value`` with every ``bytes``/``bytearray`` replaced by its marker."""
    if isinstance(value, (bytes, bytearray)):
        return bytes_marker(value)
    if isinstance(value, dict):
        return {k: _premarked(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_premarked(v) for v in value]
    return value


def test_premarked_payloads_encode_identically(corpus):
    payloads, _ = corpus
    with_bytes = [p for p in payloads if b"__bytes__" in canonical_encode(p)]
    assert len(with_bytes) > 100
    mismatched = [p for p in with_bytes if canonical_encode(_premarked(p)) != canonical_encode(p)]
    assert not mismatched, mismatched[:3]


def test_bytes_marker_matches_raw_bytes():
    for raw in (b"", b"\x00\xff", bytearray(b"\x10\x20"), bytes(range(256))):
        payload = {"secret": raw, "sig_layers": [raw, raw], "nested": {"x": (raw,)}}
        marked = {
            "secret": bytes_marker(raw),
            "sig_layers": [bytes_marker(raw)] * 2,
            "nested": {"x": [bytes_marker(raw)]},
        }
        assert canonical_encode(marked) == canonical_encode(payload) == reference_encode(payload)


def test_encoded_total_is_the_sum_of_encodings(corpus):
    payloads, _ = corpus
    assert canonical_encoded_total(payloads) == sum(len(canonical_encode(p)) for p in payloads)
    for size in (0, 1, 2, 7):
        chunk = payloads[:size]
        assert canonical_encoded_total(chunk) == sum(len(canonical_encode(p)) for p in chunk)
