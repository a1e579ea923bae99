"""E36 — store sync: the run store commits at WAL + ``synchronous=NORMAL``.

Every writer of a ``runs`` table opens it through
:func:`repro.lab.store.connect_runs`, which sets ``synchronous = NORMAL``
whenever WAL is in force: a commit appends its frames to the WAL and
returns without an fsync.  A stored entry is a deterministic function of
its run key, so the commits a power loss may roll back re-execute to
identical rows; a process crash loses nothing committed.  This bench
prices the fsync the shipped store no longer pays, against the same
store with ``PRAGMA synchronous = FULL`` set on its connection by this
script (``src/`` has no such knob), in two patterns:

* ``job_write`` — one served job's write, ``put`` + ``flush``, as the
  serve daemon records each settled job: ms per job over perfbench's
  ``sweep-analytic`` entries (24 herlihy items, all-conforming, uniform
  timing, over four families);
* ``sweep_round`` — one 24-item ``run_sweep(fast_path=True)`` round of
  the same grid into a fresh store, as perfbench's ``sweep-analytic``
  times it: ms per round.

Before timing, both sides write the same items and their rows must be
identical (``recorded_at`` dropped; ``wall_seconds`` and the path stamp
of a report zeroed, as perfbench compares reports).  Each of
:data:`ROUNDS` rounds writes both sides into fresh SQLite files under
``benchmarks/results/`` (a disk, where an fsync costs what it costs in
use, not a tmpfs), the side that goes first alternating; each pattern
records the median over rounds.  The floor (``job_write`` at least
:data:`FLOOR` times faster than under FULL) is checked by
``benchmarks/floors.py``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_e36_store_sync.py

``python -m pytest benchmarks/bench_e36_store_sync.py`` re-records the
artifact and checks the row identity.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from pathlib import Path
from random import Random

from _tables import RESULTS_DIR, emit_table

from repro.api.sweep import run_sweep
from repro.lab.store import SqliteStore
from repro.lab.workloads import Workload, build_sweep

ARTIFACT = RESULTS_DIR / "BENCH_E36.json"
WORKDIR = RESULTS_DIR / "e36"
ROUNDS = 60
FLOOR = 1.5
SIDES = ("normal", "full")
#: The fully covered shapes of perfbench's ``sweep-analytic``
#: (``perfbench/workloads.py`` ``ANALYTIC_FAMILIES``), copied, and its
#: ``copies``: 4 x 6 = 24 items a round.
FAMILIES = (
    ("clique", {"n": 3}),
    ("clique", {"n": 5}),
    ("wheel", {"rim": 4}),
    ("erdos-renyi", {"n": 7, "p": 0.3}),
)
COPIES = 6


def items(label: str, rng: Random) -> list:
    """perfbench's analytic grid: fresh seeds and a fresh ``start_time``
    per call, so no shape recurs and the analysis memo stays cold."""
    start_time = rng.randrange(1000)
    workloads = [
        Workload(
            family, grid, seed=rng.randrange(1 << 30), name=f"{label}-{family}",
            scenario_kwargs={"start_time": start_time},
        )
        for family, grid in FAMILIES
    ]
    return list(build_sweep(workloads * COPIES, name=label).items())


def open_store(side: str, name: str) -> SqliteStore:
    """A fresh store under :data:`WORKDIR`; ``full`` restores SQLite's
    default sync on its connection."""
    path = WORKDIR / f"{name}-{side}.sqlite"
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)
    store = SqliteStore(path)
    if side == "full":
        store._db.execute("PRAGMA synchronous = FULL")
    return store


def rows(store: SqliteStore) -> list:
    """The store's rows in order, ``recorded_at`` dropped and each
    report's ``wall_seconds`` and path stamp zeroed."""
    out = []
    for key, entry, _ in store.records():
        entry = json.loads(json.dumps(entry))
        if entry.get("ok"):
            entry["report"]["wall_seconds"] = 0.0
            entry["report"].get("extra", {}).pop("path", None)
        out.append((key, entry))
    return out


def write_jobs(store: SqliteStore, entries: list) -> float:
    """Seconds to write ``entries`` one served job at a time."""
    begun = time.perf_counter()
    for key, entry in entries:
        store.put(key, entry)
        store.flush()
    return time.perf_counter() - begun


def sweep(store: SqliteStore, batch: list) -> float:
    begun = time.perf_counter()
    report = run_sweep(batch, parallel=False, store=store, fast_path=True)
    elapsed = time.perf_counter() - begun
    assert report.analytic == len(batch) and not report.failures, report.summary()
    return elapsed


def measure() -> dict:
    rng = Random(36)
    WORKDIR.mkdir(parents=True, exist_ok=True)
    batch = items("e36", rng)
    with SqliteStore(":memory:") as memory:
        run_sweep(batch, parallel=False, store=memory, fast_path=True)
        entries = [(key, entry) for key, entry, _ in memory.records()]

    # Identical rows first: the same items through either side.
    digests, modes = {}, {}
    for side in SIDES:
        store = open_store(side, "rows")
        modes[side] = (
            store.journal_mode, store._db.execute("PRAGMA synchronous").fetchone()[0]
        )
        write_jobs(store, entries)
        job_rows = rows(store)
        store.close()
        store = open_store(side, "rows-sweep")
        sweep(store, batch)
        sweep_rows = rows(store)
        store.close()
        digests[side] = hashlib.sha256(
            json.dumps([job_rows, sweep_rows], sort_keys=True).encode()
        ).hexdigest()
    assert digests["normal"] == digests["full"], digests

    job = {side: [] for side in SIDES}
    rounds = {side: [] for side in SIDES}
    for index in range(ROUNDS):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        for side in order:
            store = open_store(side, "jobs")
            job[side].append(write_jobs(store, entries) / len(entries))
            store.close()
        for side in order:
            store = open_store(side, "sweep")
            rounds[side].append(sweep(store, items(f"e36r{index}{side}", rng)))
            store.close()
    for path in WORKDIR.iterdir():
        path.unlink()
    WORKDIR.rmdir()

    def summary(samples: list, unit: str) -> dict:
        return {
            unit: round(statistics.median(samples) * 1e3, 4),
            f"min_{unit}": round(min(samples) * 1e3, 4),
        }

    patterns = {
        "job_write": {side: summary(job[side], "ms_per_job") for side in SIDES},
        "sweep_round": {side: summary(rounds[side], "ms_per_round") for side in SIDES},
    }
    for pattern, unit in (("job_write", "ms_per_job"), ("sweep_round", "ms_per_round")):
        sides = patterns[pattern]
        sides["speedup"] = round(sides["full"][unit] / sides["normal"][unit], 3)
    return {
        "items": len(entries),
        "journal_mode": {side: mode for side, (mode, _) in modes.items()},
        "synchronous": {side: sync for side, (_, sync) in modes.items()},
        "rows_digest": digests,
        "patterns": patterns,
    }


def record() -> dict:
    data = {"exp": "E36", "rounds": ROUNDS, "floor": FLOOR, **measure()}
    job, sweep_round = data["patterns"]["job_write"], data["patterns"]["sweep_round"]
    emit_table(
        "E36",
        f"Run-store writes, WAL + synchronous NORMAL (shipped) vs FULL "
        f"(median of {ROUNDS} rounds, {data['items']} items)",
        ["pattern", "unit", "NORMAL", "FULL", "speedup"],
        [
            ["served-job write (put + flush)", "ms/job",
             f"{job['normal']['ms_per_job']:.3f}", f"{job['full']['ms_per_job']:.3f}",
             f"{job['speedup']:.2f}x"],
            ["run_sweep(fast_path=True) round", "ms/round",
             f"{sweep_round['normal']['ms_per_round']:.2f}",
             f"{sweep_round['full']['ms_per_round']:.2f}",
             f"{sweep_round['speedup']:.2f}x"],
        ],
        notes=(
            "Both sides write identical rows (checked first).  FULL is "
            "the same store with PRAGMA synchronous = FULL set by the "
            "bench.  Files on disk under benchmarks/results/.  Floor: "
            f"served-job write >= {FLOOR}x faster under NORMAL."
        ),
    )
    ARTIFACT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return data


def test_store_sync_rows_match():
    data = record()
    assert data["journal_mode"] == {"normal": "wal", "full": "wal"}
    assert data["synchronous"] == {"normal": 1, "full": 2}
    assert data["rows_digest"]["normal"] == data["rows_digest"]["full"]


if __name__ == "__main__":
    print(json.dumps(record(), indent=1, sort_keys=True))
