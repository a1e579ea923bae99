"""E24 — run-store write throughput: SqliteStore commit batching.

``SqliteStore.put`` used to commit per run, so every stored result paid
a whole sqlite transaction.  Commits are now deferred and flushed every
``commit_every`` puts (``close`` always flushes), bounding what a
process crash can lose to the last partial batch while cutting the
transactions large sweeps run.  Under the store's WAL +
``synchronous=NORMAL`` policy (:func:`repro.lab.store.connect_runs`) a
commit pays no fsync, so what batching saves is per-transaction work —
the WAL frame append, the lock cycle, the commit bookkeeping; E36
prices the fsync itself.  This bench writes the same batch of entries
at several batching levels and tables the throughput;
``commit_every=1`` is the old per-put behaviour."""

from __future__ import annotations

import time

from _tables import emit_table

from repro.lab.store import SqliteStore

RUNS = 256
LEVELS = (1, 8, 64)
ENTRY = {
    "ok": True,
    "report": {
        "engine": "herlihy",
        "scenario": {"name": "lab:cycle(n=3):n=3:all-conforming:herlihy#0"},
        "outcomes": {"A": "Deal", "B": "Deal", "C": "Deal"},
        "conforming": ["A", "B", "C"],
        "completion_time": 3900,
        "stored_bytes": 8246,
        "wall_seconds": 0.004,
    },
}


def write_runs(path, commit_every: int) -> float:
    """Wall seconds to put (and durably close) RUNS entries."""
    store = SqliteStore(path, commit_every=commit_every)
    start = time.perf_counter()
    for i in range(RUNS):
        store.put(f"{i:064x}", ENTRY)
    store.close()
    elapsed = time.perf_counter() - start
    with SqliteStore(path) as reopened:
        assert len(reopened) == RUNS  # every put survived the close
    return elapsed


def test_commit_batching(benchmark, tmp_path):
    rounds = iter(range(10**6))

    def sweep_writes():
        batch = next(rounds)
        return {
            level: write_runs(
                tmp_path / f"r{batch}-ce{level}.sqlite", level
            )
            for level in LEVELS
        }

    timings = benchmark.pedantic(sweep_writes, rounds=1, iterations=1)

    per_put = timings[1]
    rows = [
        [
            level,
            f"{timings[level] * 1000:.1f}",
            f"{RUNS / timings[level]:.0f}",
            f"{per_put / timings[level]:.1f}x",
        ]
        for level in LEVELS
    ]
    emit_table(
        "E24",
        f"SqliteStore write throughput vs commit batching ({RUNS} puts)",
        ["commit_every", "wall ms", "puts/sec", "speedup vs per-put"],
        rows,
        notes=(
            "commit_every=1 is the old commit-per-put behaviour; the "
            "store default is 8.  Batching trades a bounded crash-loss "
            "window (at most commit_every-1 runs, and close() always "
            "flushes) for one transaction per batch instead of per run.  "
            "At the store's WAL + synchronous=NORMAL no commit pays an "
            "fsync (E36 prices that), so the gap is per-transaction "
            "overhead; merge_from() goes further and absorbs a whole "
            "shard in a single executemany transaction."
        ),
    )
    # Timing asserts stay loose (CI disks vary); batching must at least
    # never be drastically slower than per-put commits.
    assert timings[64] < per_put * 2
