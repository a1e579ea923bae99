"""E35 — serve's cold tier: simulated jobs driven on the event loop.

A submission the store and the analytic tier cannot answer is simulated
by a ``SwapService`` worker slot, and its milestones stream to
subscribers as they fire.  This bench times that tier alone: an
in-process ``SwapService(fast_path=True, rate=0, max_concurrency=1)``
on one core, one closed-loop client submitting ``herlihy`` scenarios of
the four families ``perfbench``'s simulated workloads sweep, crossed
with two mixes and two timing models, keeping only the scenarios the
analytic path does not fully cover.  It commits the numbers of two
checkouts side by side:

* ``before`` — the same script run against the parent commit's ``src``
  (each job stepped one scheduler event at a time on a pool thread,
  every milestone handed back to the loop with ``call_soon_threadsafe``);
* ``after`` — this checkout (each job advanced on the loop itself, one
  milestone batch per slice, no drive thread).

Before timing, every job is run once and its stream is digested per
family: the envelope event names, the milestone wires, and the stored
entry (``wall_seconds`` zeroed).  The digests must be equal on both
sides: the change moves where a job is driven, never what it streams or
stores.  Times are ms per simulated job from submit to settled, the
minimum over :data:`ROUNDS` rounds (each round a fresh service and
store), scaled to a :data:`REFERENCE_S` reference loop timed around
each round, as ``perfbench`` scales its rounds: the machine's speed
drifts more between two invocations than the change moves.  The floor (``after <= before / FLOOR`` on every family) is
frozen in CI.

Run from the repository root::

    PYTHONPATH=<parent checkout>/src python benchmarks/bench_e35_serve_drive.py --side before
    PYTHONPATH=src python benchmarks/bench_e35_serve_drive.py --side after

``python -m pytest benchmarks/bench_e35_serve_drive.py`` re-measures the
``after`` side and checks its digests against the committed ``before``.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import time
from contextlib import contextmanager
from typing import Iterator

from _tables import RESULTS_DIR, emit_table

from repro.analysis.protocol import analyze_scenario
from repro.lab.workloads import Workload, build_sweep
from repro.serve.service import ServiceConfig, SwapService

ARTIFACT = RESULTS_DIR / "BENCH_E35.json"
ROUNDS = 40
FLOOR = 1.1
#: Seconds :func:`reference_seconds` takes on the machine speed that
#: every time is scaled to (perfbench's ``REFERENCE_S``).
REFERENCE_S = 0.015
#: The strongly connected families of perfbench's simulated workloads
#: (``perfbench/workloads.py`` ``SIM_FAMILIES``), copied.
FAMILIES = (
    ("clique", {"n": 4}),
    ("erdos-renyi", {"n": 6, "p": 0.25}),
    ("wheel", {"rim": 4}),
    ("power-law", {"n": 7, "exponent": 2.2, "extra": 4}),
)
#: serve-mixed's cold simulated keys draw from these mixes and timings.
MIXES = ("phase-crash", "all-conforming")
TIMINGS = ("stragglers", "uniform")
SEEDS = (3, 5, 8, 13, 21, 34)


def scenarios(family: str, params: dict) -> list:
    """``herlihy`` items of one family the analytic path does not cover."""
    workloads = [
        Workload(family, params, mixes=MIXES, timings=TIMINGS, seed=seed, name=f"e35-{family}")
        for seed in SEEDS
    ]
    return [
        (engine, scenario)
        for engine, scenario in build_sweep(workloads, name="e35").items()
        if analyze_scenario(scenario, engine=engine).coverage != "full"
    ]


def reference_seconds() -> float:
    """Time perfbench's fixed pure-Python loop (dict updates and a
    string sort), copied."""
    begun = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(60000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    sorted(str(i) for i in range(20000))
    return time.perf_counter() - begun


@contextmanager
def one_core() -> Iterator[None]:
    """Pin this process to one core, as perfbench runs serve-mixed."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cores)


async def serve(items: list) -> tuple[float, list]:
    """Submit ``items`` one at a time to a fresh cold service; returns
    the summed submit-to-settled seconds and the settled jobs."""
    service = SwapService(ServiceConfig(fast_path=True, rate=0, max_concurrency=1))
    await service.start()
    try:
        elapsed, jobs = 0.0, []
        for engine, scenario in items:
            begun = time.perf_counter()
            submitted = service.submit(scenario, engine=engine)
            job = await service.wait(submitted.key)
            elapsed += time.perf_counter() - begun
            assert submitted.status == "accepted", (scenario.name, submitted.status)
            assert job.status == "settled", (scenario.name, job.status)
            jobs.append(job)
        return elapsed, jobs
    finally:
        await service.stop()


def digest(jobs: list) -> str:
    """SHA-256 over every job's event names, milestone wires and entry."""
    streams = []
    for job in jobs:
        entry = json.loads(json.dumps(job.entry))
        entry["report"]["wall_seconds"] = 0.0
        streams.append({
            "events": [event["event"] for event in job.events],
            "milestones": [e["data"] for e in job.events if e["event"] == "milestone"],
            "entry": entry,
        })
    return hashlib.sha256(json.dumps(streams, sort_keys=True).encode()).hexdigest()


def measure() -> dict[str, dict]:
    """Per family: jobs, stream digest and ms per simulated job.

    Each round passes over every family in turn, so each family's
    minimum is drawn from samples spread over the whole measurement.
    """
    items = {family: scenarios(family, params) for family, params in FAMILIES}
    out = {}
    with one_core():
        loop = asyncio.new_event_loop()
        try:
            for family, jobs in items.items():
                _, settled = loop.run_until_complete(serve(jobs))
                out[family] = {"jobs": len(jobs), "digest": digest(settled)}
            best = dict.fromkeys(items, float("inf"))
            for _ in range(ROUNDS):
                for family, jobs in items.items():
                    reference = reference_seconds()
                    elapsed, _ = loop.run_until_complete(serve(jobs))
                    scale = 2 * REFERENCE_S / (reference + reference_seconds())
                    best[family] = min(best[family], scale * elapsed / len(jobs))
        finally:
            loop.close()
    for family, seconds in best.items():
        out[family]["ms_per_job"] = round(seconds * 1e3, 4)
    return out


def record(side: str) -> dict:
    """Measure this checkout as ``side`` and rewrite the artifact,
    keeping the other side; speedups are filled in once both exist."""
    data = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {}
    data.update(
        exp="E35", rounds=ROUNDS, floor=FLOOR, reference_s=REFERENCE_S, mixes=list(MIXES),
        timings=list(TIMINGS), seeds=list(SEEDS),
    )
    data[side] = measure()
    if "before" in data and "after" in data:
        data["speedup"] = {
            family: round(data["before"][family]["ms_per_job"] / after["ms_per_job"], 3)
            for family, after in data["after"].items()
        }
        emit_table(
            "E35",
            f"Served simulated jobs, ms/job submit to settled (min of {ROUNDS} "
            f"rounds, scaled to a {REFERENCE_S}s reference loop)",
            ["family", "jobs", "before", "after", "speedup"],
            [
                [family, after["jobs"],
                 f"{data['before'][family]['ms_per_job']:.3f}",
                 f"{after['ms_per_job']:.3f}", f"{data['speedup'][family]:.2f}x"]
                for family, after in data["after"].items()
            ],
            notes=(
                f"Mixes {', '.join(MIXES)} x timings {', '.join(TIMINGS)} x "
                f"{len(SEEDS)} seeds per family, analytic-covered items "
                f"dropped.  Streams and entries digested equal before "
                f"timing.  Floor: after <= before / {FLOOR} on every family."
            ),
        )
    ARTIFACT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return data


def test_serve_drive_streams_match_before():
    data = record("after")
    for family, before in data["before"].items():
        after = data["after"][family]
        assert after["jobs"] == before["jobs"], family
        assert after["digest"] == before["digest"], family


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", choices=("before", "after"), required=True)
    side = parser.parse_args().side
    print(json.dumps(record(side)[side], indent=1))
