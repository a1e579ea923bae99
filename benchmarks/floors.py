"""Frozen floors over the committed benchmark artifacts.

Each check reads one ``results/BENCH_E*.json`` artifact and asserts the
floors its bench froze when it was recorded: speedups at or above a
bound, counts that must not move.  Nothing is re-measured; a check
fails when a re-recorded artifact no longer upholds its floor.  A new
bench registers its floor here, as one function in :data:`FLOORS`.

Run::

    make bench-floors
    python benchmarks/floors.py [--results DIR]

Every check runs; the exit status is 1 if any failed.  The floors are
``assert`` statements, so the script refuses to run under ``python -O``.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path
from typing import Any, Callable

RESULTS = Path(__file__).resolve().parent / "results"


def _load(results: Path, exp: str) -> Any:
    with open(results / f"BENCH_{exp}.json", encoding="utf-8") as handle:
        return json.load(handle)


def e28(results: Path) -> None:
    """Analytic fast path: >=100x analytic on covered scenarios, >=1.2x
    on the residual simulated path vs the E22 baseline."""
    agg = _load(results, "E28")["aggregates"]
    speedups = {
        label: value["analytic_speedup"]
        for label, value in agg.items()
        if isinstance(value, dict)
    }
    assert speedups and all(s >= 100 for s in speedups.values()), speedups
    assert agg["median_simulated_speedup_vs_e22"] >= 1.2, agg
    print(f"E28 floors ok over {len(speedups)} workload(s): {speedups}")


def e29(results: Path) -> None:
    """Coordination overhead: every fleet workload within the recorded
    overhead ceiling, and a 4-worker drain on record."""
    agg = _load(results, "E29")["aggregates"]
    ceiling = agg["overhead_ceiling"]
    overheads = {
        label: value["overhead"]
        for label, value in agg.items()
        if isinstance(value, dict) and "overhead" in value
    }
    assert overheads, "no per-workload overheads recorded"
    over = {l: o for l, o in overheads.items() if o > ceiling}
    assert not over, f"over the {ceiling:.0%} budget: {over}"
    assert agg["max_overhead"] <= ceiling
    four = agg["four_worker_drain"]
    assert four["workers"] == 4 and four["items"] > 0
    print(f"E29 budget ok (<= {ceiling:.0%}): {overheads}")


def e31(results: Path) -> None:
    """Hot layers: the C-backed ledger encoder >=2x the recursive
    reference walk, and memoised diam(D) + FVS >=5x a cold computation
    on every lab family."""
    agg = _load(results, "E31")["aggregates"]
    encoder = agg["encoder"]
    assert encoder["speedup"] >= 2.0, encoder
    memo = {name: value["speedup"] for name, value in agg["memo"].items()}
    assert memo and all(s >= 5.0 for s in memo.values()), memo
    assert agg["memo_min_speedup"] >= 5.0, agg
    print(f"E31 floors ok: encoder {encoder['speedup']}x, memo {memo}")


def e32(results: Path) -> None:
    """Cold shapes: a cold diam(D) + minimum FVS + full D(u, v) table
    >=1.2x the per-pair reference on every lab family with |V| >= 5,
    and >=3x on an 8-clique.  Smaller families are recorded unfloored.
    First-sight synthesis with contract views sized by the identity
    >=1.1x one encode per contract, median over the four shapes."""
    agg = _load(results, "E32")["aggregates"]
    families = agg["invariants"]
    floored = {n: f for n, f in families.items() if f["vertices"] >= 5}
    assert len(floored) >= 4 and "clique-8" in floored, families
    for name, family in floored.items():
        floor = 3.0 if name == "clique-8" else 1.2
        assert family["speedup"] >= floor, (name, family)
    assert len(agg["synthesis_us"]) == 4, agg["synthesis_us"]
    sizing = agg["sizing_speedup"]
    assert len(sizing) == 4 and agg["sizing_median_speedup"] >= 1.1, sizing
    print(
        f"E32 floors ok: { {n: f['speedup'] for n, f in floored.items()} }, "
        f"sizing {agg['sizing_median_speedup']}x"
    )


def e33(results: Path) -> None:
    """Simulator residue: simulated herlihy runs >=1.15x faster than the
    parent commit on every family, with identical events and ledger
    records per run (the cut changes the cost of a step, never the
    steps)."""
    data = _load(results, "E33")
    before, after = data["before"], data["after"]
    assert before and set(before) == set(after), (before, after)
    for family, new in after.items():
        old = before[family]
        assert new["events_per_run"] == old["events_per_run"], (family, old, new)
        assert new["records_per_run"] == old["records_per_run"], (family, old, new)
        assert new["ms_per_run"] <= old["ms_per_run"] / 1.15, (family, old, new)
    print(f"E33 floors ok: {data['speedup']}")


def e34(results: Path) -> None:
    """Transcript bytes: first-sight synthesis >=1.3x the full-record
    reference on both cliques (|L| >= 4).  The other shapes are
    recorded unfloored."""
    agg = _load(results, "E34")["aggregates"]
    shapes = agg["shapes"]
    assert len(shapes) == 5, shapes
    for name in ("clique:n=5", "clique-8"):
        assert shapes[name]["speedup"] >= 1.3, (name, shapes[name])
    print(f"E34 floors ok: { {n: s['speedup'] for n, s in shapes.items()} }")


def e35(results: Path) -> None:
    """Serve drive: served simulated jobs >=1.1x faster submit-to-settled
    than the parent commit on every family, with identical event names,
    milestone wires and stored entries (the change moves where a job is
    driven, never what it streams or stores)."""
    data = _load(results, "E35")
    before, after = data["before"], data["after"]
    assert before and set(before) == set(after), (before, after)
    for family, new in after.items():
        old = before[family]
        assert new["jobs"] == old["jobs"], (family, old, new)
        assert new["digest"] == old["digest"], (family, old, new)
        assert new["ms_per_job"] <= old["ms_per_job"] / 1.1, (family, old, new)
    print(f"E35 floors ok: {data['speedup']}")


def e36(results: Path) -> None:
    """Store sync: a served job's write (put + flush) >=1.5x faster at
    the shipped WAL + synchronous=NORMAL than under FULL, with both
    sides writing identical rows in WAL."""
    data = _load(results, "E36")
    assert data["journal_mode"] == {"normal": "wal", "full": "wal"}, data
    assert data["synchronous"] == {"normal": 1, "full": 2}, data
    digests = data["rows_digest"]
    assert digests["normal"] == digests["full"], digests
    job = data["patterns"]["job_write"]
    assert job["normal"]["ms_per_job"] <= job["full"]["ms_per_job"] / 1.5, job
    print(f"E36 floors ok: served-job write {job['speedup']}x")


def e37(results: Path) -> None:
    """Stored bytes: on fleet-drain's 96 simulated draws, whose running
    byte totals the bench checked against a full encode first, a run
    with the build-time sizing stubbed out and every ledger encoded
    after it costs >= 1.0x the shipped run, and the sizing itself
    costs the shipped run <= 1.3x the stubbed run alone."""
    agg = _load(results, "E37")["aggregates"]
    assert agg["runs"] == 96 and agg["records"] > 0 and agg["record_bytes"] > 0, agg
    assert agg["ratio"] >= 1.0, agg
    assert agg["sizing_ratio"] <= 1.3, agg
    print(
        f"E37 floors ok: encode-after / shipped {agg['ratio']}x, "
        f"shipped / unsized {agg['sizing_ratio']}x"
    )


def e38(results: Path) -> None:
    """The warm path: a memo-hit scenario's run key and stored row, as
    the swap service and the fleet worker make them, >= 1.5x the
    encodings they replaced (median of per-round ratios, equal bytes
    asserted first); the serial sweep's recorded entry is recorded
    unfloored."""
    agg = _load(results, "E38")["aggregates"]
    assert set(agg["us_per_scenario"]) == {"reference", "entry", "recorded"}, agg
    assert agg["speedup"]["entry"] >= 1.5, agg
    print(f"E38 floors ok: {agg['speedup']}")


def e39(results: Path) -> None:
    """First sight, layer by layer: over the four perfbench analytic
    shapes, predict's bucket replay >= 1.1x the heap replay and the
    synthesis >= 1.2x the one building every milestone twice (medians
    of per-round ratios, outputs asserted equal first); µs per shape
    for predict, synthesis and the first stored entry recorded."""
    agg = _load(results, "E39")["aggregates"]
    shapes = agg["shapes"]
    assert len(shapes) == 4, shapes
    for name, shape in shapes.items():
        for layer in ("predict_us", "synthesize_us", "first_entry_us"):
            assert shape[layer] > 0, (name, shape)
    assert agg["predict_median_speedup"] >= 1.1, agg
    assert agg["synthesize_median_speedup"] >= 1.2, agg
    print(
        f"E39 floors ok: predict {agg['predict_median_speedup']}x, "
        f"synthesize {agg['synthesize_median_speedup']}x"
    )


#: Experiment id -> its floor check, in experiment order.
FLOORS: dict[str, Callable[[Path], None]] = {
    "E28": e28,
    "E29": e29,
    "E31": e31,
    "E32": e32,
    "E33": e33,
    "E34": e34,
    "E35": e35,
    "E36": e36,
    "E37": e37,
    "E38": e38,
    "E39": e39,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/floors.py",
        description="assert the frozen floors of the committed bench artifacts",
    )
    parser.add_argument(
        "--results", type=Path, default=RESULTS,
        help="directory holding the BENCH_E*.json artifacts",
    )
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        parser.error("python -O strips the assert statements the floors are")
    failed = []
    for exp, check in FLOORS.items():
        try:
            check(args.results)
        except Exception:
            traceback.print_exc()
            print(f"{exp} floors FAILED", file=sys.stderr)
            failed.append(exp)
    if failed:
        print(f"floors failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
