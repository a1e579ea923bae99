"""E29 — fleet coordination overhead vs the embarrassingly-parallel ideal.

``repro.fleet`` drains one sweep with N claim/lease workers sharing a
SQLite store.  The coordination is not free: every chunk costs a
``BEGIN IMMEDIATE`` claim, a heartbeat after any item that ends once
the lease is ``HEARTBEAT_AGE`` of its TTL old (none, for a chunk of
bench-sized items), and an atomic commit+release transaction.  This
bench prices that protocol against the ideal a perfectly-coordinated
worker would achieve — the bare :func:`repro.api.sweep.execute_payload`
loop with zero coordination — on E22-style workloads, and freezes the
budget:

* **coordination overhead** — wall time of a single in-process
  :class:`~repro.fleet.worker.FleetWorker` draining the queue
  (enqueue + claims + any heartbeats + atomic commits included) over the
  bare execution loop on the same payloads, asserted ``<=
  OVERHEAD_CEILING`` per workload (the acceptance budget; CI re-asserts
  it from the committed ``BENCH_E29.json``).
* **drain parity** — the drained store must hold exactly the ideal
  loop's entries, key for key, byte-identical modulo wall time: the
  lease protocol may cost a little time, never a different answer.
* **4-worker subprocess drain** — the real ``lab run --fleet 4``
  topology (separate OS processes, same store) over the combined grid,
  parity-checked the same way.  Its wall time is reported but not
  floor-asserted: it is dominated by interpreter spawn (~0.5 s/worker),
  which amortizes over real sweeps, not a bench-sized one.
"""

import json
import tempfile
import time
from pathlib import Path
from random import Random

from _tables import emit_bench_json, emit_table

from repro.api import RunReport, Scenario
from repro.api.sweep import execute_payload, run_key
from repro.digraph.generators import complete_digraph, random_strongly_connected
from repro.fleet import FleetConfig, FleetCoordinator, FleetWorker, run_fleet

# E22 shapes, seed-gridded so chunking has something to shard.
WORKLOADS = [
    ("K4", complete_digraph(4), {}, range(1, 25)),
    ("K6", complete_digraph(6), {}, range(1, 9)),
    (
        "sparse n=10",
        random_strongly_connected(10, 0.15, Random(1)),
        {},
        range(1, 13),
    ),
]

#: The acceptance budget: fleet wall time over ideal wall time - 1.
OVERHEAD_CEILING = 0.15

ROUNDS = 3
CONFIG = FleetConfig(lease_ttl=30.0, skew_grace=5.0, chunk_size=8)


def workload_items(label, digraph, overrides, seeds):
    return [
        (
            "herlihy",
            Scenario(topology=digraph, name=f"E29:{label}", seed=seed, **overrides),
        )
        for seed in seeds
    ]


def comparable(entry):
    """A store entry minus the declared non-deterministic fields."""
    entry = json.loads(json.dumps(entry))
    report = entry.get("report") or {}
    report.pop("wall_seconds", None)
    (report.get("extra") or {}).pop("path", None)
    return entry


def drain_once(items, tmp, tag):
    """One enqueue + single-worker drain; returns (wall_s, store_path)."""
    path = Path(tmp) / f"fleet-{tag}.sqlite"
    begin = time.perf_counter()
    with FleetCoordinator(path, CONFIG) as coordinator:
        coordinator.enqueue(items)
    FleetWorker(path, CONFIG, worker_id=f"bench-{tag}").run()
    return time.perf_counter() - begin, path


def measure():
    rows, agg, reports = [], {}, []
    overheads = {}
    all_items = []
    expected_entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, digraph, overrides, seeds in WORKLOADS:
            items = workload_items(label, digraph, overrides, seeds)
            all_items.extend(items)
            payloads = [
                (engine, scenario.to_dict()) for engine, scenario in items
            ]
            keys = [run_key(engine, scenario) for engine, scenario in items]

            # The embarrassingly-parallel ideal: the worker's inner
            # loop, no coordination.  Best-of-N minimum (the standard
            # low-noise estimator across this suite).
            ideal_times, entries = [], None
            for _ in range(ROUNDS):
                begin = time.perf_counter()
                produced = [execute_payload(p) for p in payloads]
                ideal_times.append(time.perf_counter() - begin)
                if entries is None:
                    entries = produced
            ideal_s = min(ideal_times)
            for key, entry in zip(keys, entries):
                assert entry["ok"], label
                expected_entries[key] = entry
            reports.append(RunReport.from_dict(entries[0]["report"]))

            # The coordinated drain: enqueue + claim/heartbeat/commit.
            fleet_times = []
            store_path = None
            for attempt in range(ROUNDS):
                wall, store_path = drain_once(items, tmp, f"{label}-{attempt}")
                fleet_times.append(wall)
            fleet_s = min(fleet_times)

            # Parity: the protocol costs time, never a different answer.
            from repro.lab.store import open_store

            with open_store(str(store_path)) as drained:
                assert set(drained.keys()) == set(keys), label
                for key, entry in zip(keys, entries):
                    assert comparable(drained.get(key)) == comparable(entry), label

            overhead = fleet_s / ideal_s - 1.0
            overheads[label] = overhead
            per_item_us = (fleet_s - ideal_s) / len(items) * 1e6
            rows.append(
                [
                    label,
                    len(items),
                    f"{ideal_s * 1000:.1f}",
                    f"{fleet_s * 1000:.1f}",
                    f"{overhead * 100:+.1f}%",
                    f"{per_item_us:.0f}",
                ]
            )
            agg[label] = {
                "items": len(items),
                "ideal_ms": round(ideal_s * 1000, 3),
                "fleet_ms": round(fleet_s * 1000, 3),
                "overhead": round(overhead, 4),
                "coordination_us_per_item": round(per_item_us, 1),
            }
            assert overhead <= OVERHEAD_CEILING, (
                f"{label}: coordination overhead {overhead * 100:.1f}% "
                f"exceeds the {OVERHEAD_CEILING * 100:.0f}% budget"
            )

        # The real topology once: 4 subprocess workers, one shared
        # store, the combined grid — parity against the ideal entries.
        path = Path(tmp) / "fleet-4w.sqlite"
        begin = time.perf_counter()
        fleet_report = run_fleet(all_items, path, workers=4, config=CONFIG)
        four_worker_s = time.perf_counter() - begin
        from repro.lab.store import open_store

        with open_store(str(path)) as drained:
            assert set(drained.keys()) == set(expected_entries)
            for key, entry in expected_entries.items():
                assert comparable(drained.get(key)) == comparable(entry)
        rows.append(
            [
                "4 workers (subproc)",
                len(all_items),
                "-",
                f"{four_worker_s * 1000:.1f}",
                "-",
                "-",
            ]
        )
        agg["four_worker_drain"] = {
            "items": len(all_items),
            "workers": 4,
            "wall_ms": round(four_worker_s * 1000, 3),
            "chunks": fleet_report.receipt.chunks,
            "parity": "byte-identical modulo wall_seconds",
        }
    agg["overhead_ceiling"] = OVERHEAD_CEILING
    agg["max_overhead"] = round(max(overheads.values()), 4)
    return rows, agg, reports


def test_fleet_overhead(benchmark):
    rows, agg, reports = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit_table(
        "E29",
        "Fleet coordination overhead vs embarrassingly-parallel ideal "
        f"(chunk={CONFIG.chunk_size}, budget "
        f"{OVERHEAD_CEILING * 100:.0f}%)",
        ["workload", "items", "ideal ms", "fleet ms", "overhead",
         "coord µs/item"],
        rows,
        notes=(
            "'ideal' is the bare execute_payload loop — what a "
            "perfectly-coordinated worker would cost.  'fleet' adds the "
            "whole claim/lease protocol on the shared SQLite store: "
            "enqueue (run-key content addressing), BEGIN IMMEDIATE "
            "claims, a heartbeat once a lease is a quarter of its TTL "
            "old, and the atomic "
            "commit+release transaction.  Every drained store is "
            "asserted key-for-key byte-identical (modulo wall_seconds) "
            "to the ideal loop's entries before timing is trusted.  "
            "The 4-worker row is the real `lab run --fleet` topology — "
            "separate interpreters, one store — reported for scale, "
            "not floor-asserted (interpreter spawn dominates at bench "
            "size)."
        ),
    )
    emit_bench_json("E29", reports, aggregates=agg)
