"""One durability policy for every writer of a ``runs`` table.

:func:`repro.lab.store.connect_runs` opens both :class:`SqliteStore` and
the fleet coordinator: WAL, and ``synchronous = NORMAL`` only while WAL
is in force.  Rollback-journal databases (a filesystem that refuses WAL,
a private temporary database) and ``":memory:"`` keep SQLite's default
``FULL``.  NORMAL gives up only what a power loss can take; a writer
killed mid-stream must still leave every flushed entry, byte for byte,
in an intact database.
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import subprocess
import sys
from pathlib import Path

import repro
from repro.fleet.coordinator import FleetCoordinator
from repro.lab.store import SqliteStore, connect_runs

NORMAL, FULL = 1, 2


def pragmas(db: sqlite3.Connection) -> tuple[int, str]:
    return (
        db.execute("PRAGMA synchronous").fetchone()[0],
        db.execute("PRAGMA journal_mode").fetchone()[0],
    )


class TestPolicy:
    def test_file_store_and_fleet_coordinator_commit_at_wal_normal(self, tmp_path):
        with SqliteStore(tmp_path / "runs.sqlite") as store:
            assert store.journal_mode == "wal"
            assert pragmas(store._db) == (NORMAL, "wal")
        with FleetCoordinator(tmp_path / "fleet.sqlite") as coordinator:
            assert pragmas(coordinator._db) == (NORMAL, "wal")

    def test_memory_store_keeps_full(self):
        with SqliteStore(":memory:") as store:
            assert store.journal_mode == "memory"
            assert pragmas(store._db) == (FULL, "memory")

    def test_rollback_journal_keeps_full(self):
        # "" opens a private temporary database, which refuses WAL the
        # way some network mounts do: NORMAL would risk corruption.
        db, mode = connect_runs("")
        try:
            assert mode == "delete"
            assert pragmas(db) == (FULL, "delete")
            assert db.execute("SELECT COUNT(*) FROM runs").fetchone()[0] == 0
        finally:
            db.close()

    def test_each_caller_keeps_its_connect_arguments(self, tmp_path):
        with SqliteStore(tmp_path / "runs.sqlite") as store:
            assert store._db.isolation_level == ""
        with FleetCoordinator(tmp_path / "fleet.sqlite") as coordinator:
            assert coordinator._db.isolation_level is None


#: Put and flush each ``(key, entry)`` read from stdin, then SIGKILL
#: the writer with nothing closed, checkpointed or cleaned up.
WRITER = """
import json, os, signal, sys
from repro.lab.store import SqliteStore
store = SqliteStore(sys.argv[1])
for key, entry in json.load(sys.stdin):
    store.put(key, entry)
    store.flush()
os.kill(os.getpid(), signal.SIGKILL)
"""


def entry(i: int) -> dict:
    return {
        "ok": True,
        "report": {
            "engine": "herlihy",
            "scenario": {"name": f"durability#{i}"},
            "outcomes": {"A": "Deal", "B": "Deal"},
            "completion_time": 100 + i,
        },
    }


def test_sigkilled_writer_keeps_every_flushed_entry(tmp_path):
    path = tmp_path / "runs.sqlite"
    entries = [(f"{i:064x}", entry(i)) for i in range(40)]
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    writer = subprocess.run(
        [sys.executable, "-c", WRITER, str(path)], input=json.dumps(entries),
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert writer.returncode == -signal.SIGKILL, writer.stderr
    # Committed but never checkpointed: the entries live in WAL frames
    # that the next open replays.
    assert Path(f"{path}-wal").stat().st_size > 0

    db = sqlite3.connect(str(path))
    try:
        assert db.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
        rows = dict(db.execute("SELECT key, entry FROM runs").fetchall())
    finally:
        db.close()
    assert rows == {key: json.dumps(e, sort_keys=True) for key, e in entries}
