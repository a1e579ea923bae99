"""E41 — the cyclic garbage a finished simulated run leaves.

A run builds chains, ledgers, contracts, parties, a scheduler and a
harness.  When that object graph holds a reference cycle, reference
counting cannot free it once the run is over: only CPython's cycle
collector can, and it runs in the middle of whatever comes next.  This
bench takes the simulated half of ``perfbench``'s ``fleet-drain``
workload — its four families x ``phase-crash``/``colluding-crash`` x
``uniform``/``stragglers``, the seeded draws of bench E37 (seed 3,
rounds 0-5, 96 runs) — and records, per run:

* ``garbage`` — the objects ``gc.collect()`` finds right after one
  ``herlihy`` run made with the collector off (after a warm-up run of
  the same scenario, so module-level memos are already filled);
* ``gc_on_ms`` / ``gc_off_ms`` — the run's wall time with the collector
  on and with it off, each the best of :data:`REPEATS`, taken
  alternately.  Their ratio is what the collector costs a run, most of
  it spent freeing earlier runs' cycles.

It commits the numbers of two checkouts side by side:

* ``before`` — the script run against the parent commit's ``src``,
  where every run was one cycle (the harness's record observer held by
  every chain, and every contract holding its chain);
* ``after`` — this checkout, where chains reach the observer and
  contracts reach their chain weakly, and the drained queue holds no
  event.

The frozen floor (``benchmarks/floors.py``) is exactly 0 objects on
every ``after`` run.

Run from the repository root::

    PYTHONPATH=<parent checkout>/src python benchmarks/bench_e41_run_garbage.py --side before
    PYTHONPATH=src python benchmarks/bench_e41_run_garbage.py --side after

``python -m pytest benchmarks/bench_e41_run_garbage.py`` re-measures the
``after`` side and asserts that no run leaves garbage.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time

from _tables import RESULTS_DIR, emit_table
from bench_e37_stored_bytes import DRAWS, SEED, fleet_drain_simulated

from repro.api import get_engine

ARTIFACT = RESULTS_DIR / "BENCH_E41.json"
REPEATS = 8


def garbage_left(engine, scenario) -> int:
    """Objects the cycle collector finds after one run made with it off."""
    gc.collect()
    gc.disable()
    try:
        engine.run(scenario)
        return gc.collect()
    finally:
        gc.enable()


def best_ms(engine, scenario) -> tuple[float, float]:
    """The best of :data:`REPEATS` wall times of one run, with the
    collector on and with it off, the two taken alternately."""
    on = off = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        engine.run(scenario)
        on = min(on, time.perf_counter() - start)
        gc.disable()
        try:
            start = time.perf_counter()
            engine.run(scenario)
            off = min(off, time.perf_counter() - start)
        finally:
            gc.enable()
    return on * 1e3, off * 1e3


def measure() -> dict:
    """Per-run garbage and times, plus their summary."""
    engine = get_engine("herlihy")
    runs = []
    for scenario in fleet_drain_simulated():
        engine.run(scenario)  # warm-up: first sight fills the memos
        on, off = best_ms(engine, scenario)
        runs.append({
            "name": scenario.name,
            "garbage": garbage_left(engine, scenario),
            "gc_on_ms": round(on, 4),
            "gc_off_ms": round(off, 4),
        })
    garbage = [run["garbage"] for run in runs]
    on_ms = statistics.median(run["gc_on_ms"] for run in runs)
    off_ms = statistics.median(run["gc_off_ms"] for run in runs)
    return {
        "runs": runs,
        "summary": {
            "runs": len(runs),
            "garbage_min": min(garbage),
            "garbage_max": max(garbage),
            "garbage_median": statistics.median(garbage),
            "gc_on_ms_median": round(on_ms, 4),
            "gc_off_ms_median": round(off_ms, 4),
            "gc_on_over_off_median": round(
                statistics.median(run["gc_on_ms"] / run["gc_off_ms"] for run in runs), 4
            ),
        },
    }


def record(side: str) -> dict:
    """Measure this checkout as ``side`` and rewrite the artifact,
    keeping the other side."""
    data = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {}
    data.update(exp="E41", seed=SEED, draws=DRAWS, repeats=REPEATS)
    data[side] = measure()
    sides = [s for s in ("before", "after") if s in data]
    emit_table(
        "E41",
        "Cyclic garbage and collector cost per simulated run",
        ["side", "runs", "garbage min", "garbage max", "gc on", "gc off", "on/off"],
        [
            [s, data[s]["summary"]["runs"], data[s]["summary"]["garbage_min"],
             data[s]["summary"]["garbage_max"],
             f"{data[s]['summary']['gc_on_ms_median']:.3f} ms",
             f"{data[s]['summary']['gc_off_ms_median']:.3f} ms",
             f"{data[s]['summary']['gc_on_over_off_median']:.3f}x"]
            for s in sides
        ],
        notes=(
            "fleet-drain's simulated draws (seed 3, rounds 0-5).  Garbage: "
            "objects gc.collect() finds after one run made with the "
            "collector off.  Times: medians over runs of each run's best of "
            f"{REPEATS}, collector on and off.  Floor: 0 objects on every "
            "after run."
        ),
    )
    ARTIFACT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return data


def test_finished_runs_leave_no_garbage():
    data = record("after")
    leaking = {run["name"]: run["garbage"] for run in data["after"]["runs"] if run["garbage"]}
    assert not leaking, leaking


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", choices=("before", "after"), required=True)
    side = parser.parse_args().side
    print(json.dumps(record(side)[side]["summary"], indent=1))
