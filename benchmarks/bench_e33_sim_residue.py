"""E33 — the simulator's residue: per-event and per-record cost.

Every adversary mix and every non-uniform timing still resolves by
discrete-event simulation of the hashed-timelock protocol.  This bench
times simulated ``herlihy`` runs over the four families ``perfbench``'s
simulated workloads sweep, crossed with two crash mixes and two timing
models, and commits the numbers of two checkouts side by side:

* ``before`` — the same script run against the parent commit's ``src``
  (a heap of frozen event dataclasses, one label string per scheduled
  callback, every ledger record sealed into a hashed block on append);
* ``after`` — this checkout (plain tuple heap entries, no labels,
  blocks sealed on first read, one encoding pass per ledger for bytes).

Before timing, every scenario is checked once: the report's
``published_bytes`` must equal the record encodings summed at append
time, ``stored_bytes`` that sum plus one 80-byte block header per
record, and every ledger must verify.  Times are ms per run, the minimum
over :data:`ROUNDS` rounds (the stable "how fast can this go" estimator,
as in E25/E31).  Events and records per run must be equal on both
sides: the cut changes the cost of a step, never the steps.  The floor
(``after <= before / FLOOR`` on every family) is frozen in CI.

Run from the repository root::

    PYTHONPATH=<parent checkout>/src python benchmarks/bench_e33_sim_residue.py --side before
    PYTHONPATH=src python benchmarks/bench_e33_sim_residue.py --side after

``python -m pytest benchmarks/bench_e33_sim_residue.py`` re-measures the
``after`` side and checks its counts against the committed ``before``.
"""

from __future__ import annotations

import argparse
import json
import time

from _tables import RESULTS_DIR, emit_table

from repro.api import get_engine
from repro.chain.ledger import Ledger, canonical_encode
from repro.lab.workloads import Workload, build_sweep

ARTIFACT = RESULTS_DIR / "BENCH_E33.json"
ROUNDS = 40
FLOOR = 1.15
BLOCK_HEADER_BYTES = 80
#: The strongly connected families of perfbench's simulated workloads
#: (``perfbench/workloads.py`` ``SIM_FAMILIES``), copied.
FAMILIES = (
    ("clique", {"n": 4}),
    ("erdos-renyi", {"n": 6, "p": 0.25}),
    ("wheel", {"rim": 4}),
    ("power-law", {"n": 7, "exponent": 2.2, "extra": 4}),
)
MIXES = ("phase-crash", "colluding-crash")
TIMINGS = ("uniform", "stragglers")
SEEDS = (3, 5, 8, 13, 21, 34)


def scenarios(family: str, params: dict) -> list:
    """``herlihy`` scenarios of one family: mixes x timings x seeds."""
    workloads = [
        Workload(family, params, mixes=MIXES, timings=TIMINGS, seed=seed, name=f"e33-{family}")
        for seed in SEEDS
    ]
    return [scenario for _, scenario in build_sweep(workloads, name="e33").items()]


def check_bytes(items: list) -> tuple[float, float]:
    """Assert byte parity and ledger integrity on every scenario; returns
    mean events and mean ledger records per run."""
    appended: list[int] = []
    original = Ledger.append

    def counting_append(self, record, timestamp):
        result = original(self, record, timestamp)
        body = {"kind": record.kind, "author": record.author, "payload": record.payload}
        appended.append(len(canonical_encode(body)))
        return result

    engine = get_engine("herlihy")
    events = records = 0
    Ledger.append = counting_append
    try:
        for scenario in items:
            appended.clear()
            execution = engine.open(scenario)
            report = execution.run_to_completion()
            assert report.published_bytes == sum(appended), scenario.name
            assert report.stored_bytes == sum(appended) + BLOCK_HEADER_BYTES * len(appended)
            execution.harness.network.verify_all()
            events += report.events_fired
            records += len(appended)
    finally:
        Ledger.append = original
    return events / len(items), records / len(items)


def round_seconds(items: list) -> float:
    """Mean seconds per run over one pass through ``items``."""
    engine = get_engine("herlihy")
    start = time.perf_counter()
    for scenario in items:
        engine.run(scenario)
    return (time.perf_counter() - start) / len(items)


def measure() -> dict[str, dict]:
    """Per family: runs, ms/run, events/run and records/run.

    Each round passes over every family in turn, so each family's
    minimum is drawn from samples spread over the whole measurement.
    """
    items = {family: scenarios(family, params) for family, params in FAMILIES}
    out = {}
    for family, runs in items.items():
        events, records = check_bytes(runs)
        out[family] = {
            "runs": len(runs),
            "events_per_run": round(events, 4),
            "records_per_run": round(records, 4),
        }
    best = dict.fromkeys(items, float("inf"))
    for _ in range(ROUNDS):
        for family, runs in items.items():
            best[family] = min(best[family], round_seconds(runs))
    for family, seconds in best.items():
        out[family]["ms_per_run"] = round(seconds * 1e3, 4)
    return out


def record(side: str) -> dict:
    """Measure this checkout as ``side`` and rewrite the artifact,
    keeping the other side; speedups are filled in once both exist."""
    data = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {}
    data.update(
        exp="E33", rounds=ROUNDS, floor=FLOOR, mixes=list(MIXES),
        timings=list(TIMINGS), seeds=list(SEEDS),
    )
    data[side] = measure()
    if "before" in data and "after" in data:
        data["speedup"] = {
            family: round(data["before"][family]["ms_per_run"] / after["ms_per_run"], 3)
            for family, after in data["after"].items()
        }
        emit_table(
            "E33",
            f"Simulated herlihy runs, ms/run (min of {ROUNDS} rounds)",
            ["family", "runs", "events/run", "records/run", "before", "after", "speedup"],
            [
                [family, after["runs"], after["events_per_run"], after["records_per_run"],
                 f"{data['before'][family]['ms_per_run']:.3f}",
                 f"{after['ms_per_run']:.3f}", f"{data['speedup'][family]:.2f}x"]
                for family, after in data["after"].items()
            ],
            notes=(
                f"Mixes {', '.join(MIXES)} x timings {', '.join(TIMINGS)} x "
                f"{len(SEEDS)} seeds per family.  Byte parity and ledger "
                f"integrity asserted before timing.  Floor: after <= "
                f"before / {FLOOR} on every family, equal counts."
            ),
        )
    ARTIFACT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return data


def test_sim_residue_counts_match_before():
    data = record("after")
    for family, before in data["before"].items():
        after = data["after"][family]
        assert after["events_per_run"] == before["events_per_run"], family
        assert after["records_per_run"] == before["records_per_run"], family


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", choices=("before", "after"), required=True)
    side = parser.parse_args().side
    print(json.dumps(record(side)[side], indent=1))
