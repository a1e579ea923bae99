"""E31 — the two hottest layers on every resolution path.

The layer-timed benchmark (``perfbench``) ranks ledger canonical encoding
first and the topology invariants (``diam(D)``, ``D(u, v)``, the leader
FVS) next on every judged workload.  This bench commits the before/after
numbers for both cuts:

* **encoder** — µs per record for the recursive reference walk plus
  sorted ``json.dumps`` (``tests/ledger_reference.py``, the encoding the
  ledger shipped before) against today's single C-backed
  ``json.JSONEncoder``, over the payloads every registered engine encodes
  on a families x adversary-mix grid.  Byte equality is asserted on the
  whole corpus first, so the timing compares equal outputs.
* **topology memo** — per lab family, ``diameter`` plus
  ``feedback_vertex_set`` on a cold memo (a cleared memo and a digraph
  object that has not probed it) against the same two calls answered
  from :func:`repro.digraph.paths.topology_memo`.

Times are the minimum over :data:`ROUNDS` rounds (the stable "how fast
can this go" estimator, as in E25).  The floors are frozen in CI.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from _tables import emit_bench_json, emit_table

from repro.chain.ledger import canonical_encode
from repro.digraph import paths
from repro.digraph.digraph import Digraph
from repro.digraph.feedback import feedback_vertex_set
from repro.lab.registry import get_family, list_families

TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))

from ledger_reference import record_corpus, reference_encode  # noqa: E402

ROUNDS = 9
#: Memo hits per timed round (one hit is a few µs; cold calls are timed singly).
MEMO_CALLS = 200
ENCODER_SPEEDUP_FLOOR = 2.0
MEMO_SPEEDUP_FLOOR = 5.0


def _encode_all(encode, payloads) -> float:
    start = time.perf_counter()
    for payload in payloads:
        encode(payload)
    return time.perf_counter() - start


def _invariants(digraph: Digraph) -> None:
    paths.diameter(digraph)
    feedback_vertex_set(digraph)


def _cold_seconds(digraph: Digraph) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        paths._MEMO.clear()
        # A digraph object keeps the memo entry it probed, so the cold
        # call gets an object of the same declaration that has not.
        cold = Digraph(list(digraph.vertices), list(digraph.arcs))
        start = time.perf_counter()
        _invariants(cold)
        best = min(best, time.perf_counter() - start)
    return best


def _memo_seconds(digraph: Digraph) -> float:
    _invariants(digraph)
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(MEMO_CALLS):
            _invariants(digraph)
        best = min(best, (time.perf_counter() - start) / MEMO_CALLS)
    return best


def test_hot_layers_meet_their_floors():
    payloads, engines = record_corpus()
    assert all(canonical_encode(p) == reference_encode(p) for p in payloads)
    reference_s = new_s = float("inf")
    for _ in range(ROUNDS):  # interleaved so drift hits both encoders
        reference_s = min(reference_s, _encode_all(reference_encode, payloads))
        new_s = min(new_s, _encode_all(canonical_encode, payloads))
    encoder = {
        "records": len(payloads),
        "engines": sorted(engines),
        "reference_us_per_record": round(reference_s / len(payloads) * 1e6, 3),
        "c_encoder_us_per_record": round(new_s / len(payloads) * 1e6, 3),
        "speedup": round(reference_s / new_s, 2),
    }

    families = {}
    rows = [
        ["encoder (all engines)", f"{len(payloads)} records",
         f"{encoder['reference_us_per_record']:.2f} µs",
         f"{encoder['c_encoder_us_per_record']:.2f} µs", f"{encoder['speedup']:.1f}x"]
    ]
    for name in list_families():
        digraph = get_family(name).generate({}, seed=1)
        if not isinstance(digraph, Digraph) or digraph.arc_count() == 0:
            continue
        cold = _cold_seconds(digraph)
        warm = _memo_seconds(digraph)
        families[name] = {
            "vertices": len(digraph.vertices),
            "arcs": digraph.arc_count(),
            "cold_us": round(cold * 1e6, 2),
            "memo_us": round(warm * 1e6, 3),
            "speedup": round(cold / warm, 1),
        }
        rows.append([f"memo: {name}",
                     f"|V|={len(digraph.vertices)} |A|={digraph.arc_count()}",
                     f"{cold * 1e6:.1f} µs", f"{warm * 1e6:.2f} µs",
                     f"{cold / warm:.1f}x"])
    min_memo = min(f["speedup"] for f in families.values())

    emit_table(
        "E31",
        f"Hot layers: ledger encoding and topology invariants (min of {ROUNDS} rounds)",
        ["layer", "workload", "before", "after", "speedup"],
        rows,
        notes=(
            "Encoder: recursive reference walk vs one C JSONEncoder, µs per "
            "record, byte-identical outputs.  Memo: diameter + "
            "feedback_vertex_set on a cold memo vs a memo hit, per lab "
            f"family at its default params.  Floors: encoder >= "
            f"{ENCODER_SPEEDUP_FLOOR}x, memo >= {MEMO_SPEEDUP_FLOOR}x."
        ),
    )
    emit_bench_json(
        "E31",
        [],
        aggregates={
            "rounds": ROUNDS,
            "encoder": encoder,
            "encoder_speedup_floor": ENCODER_SPEEDUP_FLOOR,
            "memo": families,
            "memo_min_speedup": min_memo,
            "memo_speedup_floor": MEMO_SPEEDUP_FLOOR,
        },
    )
    assert encoder["speedup"] >= ENCODER_SPEEDUP_FLOOR, encoder
    assert min_memo >= MEMO_SPEEDUP_FLOOR, families
