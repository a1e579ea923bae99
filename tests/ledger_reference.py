"""Test-only reference for the ledger's canonical encoding.

:func:`reference_encode` is the recursive walk that
``repro.chain.ledger.canonical_encode`` performed before it became one
C-backed ``json.JSONEncoder``: every value rebuilt into plain JSON types,
then a sorted ``json.dumps``.  The parity tests and bench E31 hold the
shipped encoder to its bytes.  :func:`record_corpus` collects every
payload the library encodes while each registered engine runs a small
families x adversary-mix grid.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from typing import Any, Iterator

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


@contextmanager
def capturing_encodes() -> Iterator[list[dict]]:
    """Record every payload passed to ``canonical_encode`` in the block,
    and every item of a list passed to ``canonical_encoded_total``.

    The wrappers replace the functions in every loaded ``repro`` module
    that holds them by name, so ledger records (encoded by the ledger's
    byte total, or one at a time when a block is sealed), contract-call
    sizing and the analytic synthesizer's byte counts are all seen.
    """
    import repro.chain.ledger as ledger

    seen: list[dict] = []
    original_encode = ledger.canonical_encode
    original_total = ledger.canonical_encoded_total

    def capture(payload: dict) -> bytes:
        seen.append(payload)
        return original_encode(payload)

    def capture_total(payloads: list[dict]) -> int:
        seen.extend(payloads)
        return original_total(payloads)

    patches = [
        (module, name, original, wrapper)
        for name, original, wrapper in (
            ("canonical_encode", original_encode, capture),
            ("canonical_encoded_total", original_total, capture_total),
        )
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro") and getattr(module, name, None) is original
    ]
    for module, name, _, wrapper in patches:
        setattr(module, name, wrapper)
    try:
        yield seen
    finally:
        for module, name, original, _ in patches:
            setattr(module, name, original)


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
    """The payloads encoded while running :func:`corpus_sweep`, and the
    names of the engines that ran at least one scenario to a report."""
    from repro.api import get_engine
    from repro.errors import ReproError

    ran: set[str] = set()
    with capturing_encodes() as seen:
        for engine, scenario in corpus_sweep().items():
            try:
                get_engine(engine).run(scenario)
            except ReproError:
                continue
            ran.add(engine)
    return seen, ran
