"""Unit tests for the hash-chained ledger."""

import pytest

from repro.chain.ledger import Block, Ledger, Record, canonical_encode
from repro.errors import LedgerError, TamperError


def record(n=0):
    return Record(kind="test", author="alice", payload={"n": n})


class TestCanonicalEncode:
    def test_deterministic_key_order(self):
        assert canonical_encode({"b": 1, "a": 2}) == canonical_encode({"a": 2, "b": 1})

    def test_bytes_supported(self):
        encoded = canonical_encode({"x": b"\x01\x02"})
        assert b"0102" in encoded

    def test_nested_structures(self):
        encoded = canonical_encode({"x": [1, {"y": b"z"}], "n": None})
        assert encoded  # just needs to not raise

    def test_unencodable_rejected(self):
        with pytest.raises(LedgerError):
            canonical_encode({"x": object()})

    def test_tuple_and_list_equal(self):
        assert canonical_encode({"x": (1, 2)}) == canonical_encode({"x": [1, 2]})


class TestAppend:
    def test_chain_links(self):
        ledger = Ledger("test")
        ledger.append(record(0), 10)
        ledger.append(record(1), 20)
        b0, b1 = ledger.blocks()
        assert b1.prev_hash == b0.block_hash
        assert b0.index == 0 and b1.index == 1

    def test_timestamps_must_be_monotone(self):
        ledger = Ledger("test")
        ledger.append(record(), 10)
        with pytest.raises(LedgerError):
            ledger.append(record(), 5)

    def test_equal_timestamps_ok(self):
        ledger = Ledger("test")
        ledger.append(record(0), 10)
        ledger.append(record(1), 10)
        assert len(ledger) == 2

    def test_append_after_read_chains_to_sealed_tip(self):
        ledger = Ledger("test")
        ledger.append(record(0), 1)
        ledger.append(record(1), 2)
        sealed = ledger.blocks()
        ledger.append(record(2), 3)
        assert len(ledger) == 3
        blocks = ledger.blocks()
        assert blocks[0] is sealed[0] and blocks[1] is sealed[1]
        assert blocks[2].index == 2
        assert blocks[2].prev_hash == sealed[1].block_hash
        ledger.verify_integrity()

    def test_sealing_on_read_matches_sealing_per_append(self):
        lazy, eager = Ledger("test"), Ledger("test")
        for i in range(4):
            lazy.append(record(i), i)
            eager.append(record(i), i)
            eager.blocks()
        assert lazy.blocks() == eager.blocks()


class TestQueries:
    def test_records_flattened(self):
        ledger = Ledger("test")
        ledger.append(record(0), 1)
        ledger.append(record(1), 2)
        assert [r.payload["n"] for r in ledger.records()] == [0, 1]

    def test_records_of_kind(self):
        ledger = Ledger("test")
        ledger.append(Record(kind="a", author="x", payload={}), 1)
        ledger.append(Record(kind="b", author="x", payload={}), 2)
        assert len(ledger.records_of_kind("a")) == 1

    def test_iteration(self):
        ledger = Ledger("test")
        ledger.append(record(), 1)
        assert len(list(ledger)) == 1


class TestIntegrity:
    def test_clean_chain_verifies(self):
        ledger = Ledger("test")
        for i in range(5):
            ledger.append(record(i), i)
        ledger.verify_integrity()

    def test_mutated_record_detected(self):
        ledger = Ledger("test")
        ledger.append(record(0), 1)
        ledger.append(record(1), 2)
        ledger.blocks()
        # Forge block 0's contents.
        original = ledger._blocks[0]
        ledger._blocks[0] = Block(
            index=original.index,
            timestamp=original.timestamp,
            prev_hash=original.prev_hash,
            records=(Record(kind="test", author="mallory", payload={"n": 99}),),
            block_hash=original.block_hash,
        )
        with pytest.raises(TamperError):
            ledger.verify_integrity()

    def test_rehashed_block_breaks_link(self):
        # Even recomputing the hash after mutation breaks the next block's
        # prev_hash linkage.
        ledger = Ledger("test")
        ledger.append(record(0), 1)
        ledger.append(record(1), 2)
        ledger.blocks()
        original = ledger._blocks[0]
        forged_records = (Record(kind="test", author="mallory", payload={"n": 99}),)
        forged_hash = Block.compute_hash(0, original.timestamp, original.prev_hash, forged_records)
        ledger._blocks[0] = Block(
            index=0,
            timestamp=original.timestamp,
            prev_hash=original.prev_hash,
            records=forged_records,
            block_hash=forged_hash,
        )
        with pytest.raises(TamperError):
            ledger.verify_integrity()

    def test_reordered_blocks_detected(self):
        ledger = Ledger("test")
        ledger.append(record(0), 1)
        ledger.append(record(1), 1)
        ledger.blocks()
        ledger._blocks.reverse()
        with pytest.raises(TamperError):
            ledger.verify_integrity()


class TestSizes:
    def test_sizes_accumulate(self):
        ledger = Ledger("test")
        assert ledger.total_size_bytes() == 0
        ledger.append(record(), 1)
        first = ledger.total_size_bytes()
        ledger.append(record(), 2)
        assert ledger.total_size_bytes() > first

    def test_block_size_includes_header(self):
        ledger = Ledger("test")
        ledger.append(record(), 1)
        (block,) = ledger.blocks()
        assert block.encoded_size_bytes() > record().encoded_size_bytes()
