"""Test-only reference for the ledger's canonical encoding.

:func:`reference_encode` is the recursive walk that
``repro.chain.ledger.canonical_encode`` performed before it became one
C-backed ``json.JSONEncoder``: every value rebuilt into plain JSON types,
then a sorted ``json.dumps``.  The parity tests and bench E31 hold the
shipped encoder to its bytes.  :func:`record_corpus` collects the body
of every record on every ledger while each registered engine runs a
small families x adversary-mix grid.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import LedgerError

#: Adversary mixes of the corpus grid.
CORPUS_MIXES = ("all-conforming", "phase-crash", "last-moment", "free-ride", "colluding-crash")


def reference_encode(payload: dict) -> bytes:
    """The pre-C-encoder canonical encoding, byte for byte."""
    return json.dumps(_reference_value(payload), separators=(",", ":"), sort_keys=True).encode()


def _reference_value(value: Any) -> Any:
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": bytes(value).hex()}
    if isinstance(value, dict):
        return {str(k): _reference_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_value(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise LedgerError(f"cannot encode {type(value).__name__} in a ledger record")


def corpus_sweep():
    """Every registered engine over cycle, wheel and erdos-renyi digraphs
    crossed with :data:`CORPUS_MIXES` (plus a multigraph for multiswap)."""
    from repro.api import list_engines
    from repro.lab.workloads import Workload, build_sweep

    engines = tuple(sorted(list_engines()))
    return build_sweep(
        [
            Workload("cycle", {"n": 3}, mixes=CORPUS_MIXES, engines=engines),
            Workload("wheel", {"rim": 4}, mixes=CORPUS_MIXES, engines=engines),
            Workload("erdos-renyi", {"n": 5, "p": 0.3}, mixes=CORPUS_MIXES, engines=engines),
            Workload("multigraph-cycle", {"n": 3, "copies": 2}, engines=("multiswap",)),
        ],
        name="ledger-corpus",
    )


def record_corpus() -> tuple[list[dict], set[str]]:
    """The body of every record on every ledger of each run of
    :func:`corpus_sweep`, and the names of the engines that ran at least
    one scenario to a report."""
    from repro.api import get_engine
    from repro.errors import ReproError

    ran: set[str] = set()
    bodies: list[dict] = []
    for engine, scenario in corpus_sweep().items():
        try:
            execution = get_engine(engine).open(scenario)
            execution.run_to_completion()
        except ReproError:
            continue
        ran.add(engine)
        bodies.extend(record.body() for _, record in execution.harness.network.all_records())
    return bodies, ran
