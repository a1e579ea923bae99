"""Ledger byte totals against the records' encodings at append time.

A ledger adds each record's size, computed by the chain layer as it
builds the record, to a running total, and encodes a record only when a
block is sealed; a size that disagreed with the record's encoding would
make the reported bytes differ from the encodings.  For every item of
:func:`ledger_reference.corpus_sweep` (every registered engine), the
report's ``published_bytes`` must equal the encodings summed at append
time, ``stored_bytes`` that sum plus one block header per record, and
every ledger must seal into a chain that verifies.
"""

import pytest
from ledger_reference import corpus_sweep

from repro.api import get_engine, list_engines
from repro.chain.ledger import Ledger, canonical_encode
from repro.errors import ReproError

BLOCK_HEADER_BYTES = 80


@pytest.fixture(scope="module")
def items():
    return corpus_sweep().items()


@pytest.mark.parametrize("engine", sorted(list_engines()))
def test_lazy_bytes_match_bytes_at_append(items, engine, monkeypatch):
    appended: list[int] = []
    original = Ledger.append

    def counting_append(self, record, timestamp):
        original(self, record, timestamp)
        appended.append(len(canonical_encode(record.body())))

    monkeypatch.setattr(Ledger, "append", counting_append)
    checked = 0
    for name, scenario in items:
        if name != engine:
            continue
        appended.clear()
        try:
            execution = get_engine(name).open(scenario)
            report = execution.run_to_completion()
        except ReproError:
            continue
        assert appended, scenario.name
        assert report.published_bytes == sum(appended), scenario.name
        assert report.stored_bytes == sum(appended) + BLOCK_HEADER_BYTES * len(appended)
        execution.harness.network.verify_all()
        checked += 1
    assert checked > 0
