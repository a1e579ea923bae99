"""Persistent, content-addressed storage for protocol runs.

Every run is addressed by :func:`repro.api.sweep.run_key` — a SHA-256
digest of the engine name plus the scenario's canonical content — and
stores exactly the worker-side entry dict ``run_sweep`` produces:
``{"ok": True, "report": RunReport.to_dict()}`` for successes,
``{"ok": False, ...}`` for scenarios the engine could not express.
Storing failures too means a warm re-run skips *everything* it already
learned, including which scenarios are infeasible.

The one store is :class:`SqliteStore` — on disk, or
``SqliteStore(":memory:")`` for per-process caching and tests — opened
by path with :func:`open_store` and passed to :func:`repro.api.run_sweep`
as ``store=``.  Shard stores combine via :meth:`SqliteStore.merge_from`
(key-idempotent, newest ``recorded_at`` wins).  JSON lines are an
interchange file, not a store: :func:`write_jsonl` exports one (``lab
export``), :func:`read_jsonl` reads one for ``merge_from`` (``lab merge``).
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.api.report import RunReport
from repro.errors import StoreError

#: One ``(key, entry, recorded_at)`` triple, as :meth:`SqliteStore.records`
#: yields and :meth:`SqliteStore.merge_from` absorbs them.
Record = tuple[str, dict, float | None]

#: The ``runs`` table DDL, created by :func:`connect_runs` for every
#: writer: :class:`repro.fleet.coordinator.FleetCoordinator` lays its
#: lease tables beside this one in the same database so chunk commits
#: and lease releases can share a transaction.
RUNS_SCHEMA = """
    CREATE TABLE IF NOT EXISTS runs (
        key           TEXT PRIMARY KEY,
        engine        TEXT NOT NULL,
        scenario_name TEXT NOT NULL,
        ok            INTEGER NOT NULL,
        recorded_at   REAL NOT NULL,
        entry         TEXT NOT NULL
    )
"""


#: How long a writer waits out another's lock before failing.
BUSY_TIMEOUT_MS = 5000


def connect_runs(path: str | Path, **connect: Any) -> tuple[sqlite3.Connection, str]:
    """Connect to the run database at ``path`` and create its ``runs``
    table; returns the connection and the journal mode in force.

    Every writer of a ``runs`` table opens it here — :class:`SqliteStore`
    and the fleet coordinator, each with its own ``connect`` arguments
    — so all of them share one durability policy:

    * ``busy_timeout`` (:data:`BUSY_TIMEOUT_MS`): a second writer waits
      its turn instead of failing on the first lock;
    * WAL, best-effort: ``journal_mode`` answers with the mode actually
      in force, and a filesystem that refuses WAL (some network mounts)
      keeps its rollback journal and works single-writer;
    * ``synchronous = NORMAL``, only under WAL.  A commit appends its
      frames to the WAL and returns without an fsync; SQLite syncs at
      checkpoints.  A process crash (SIGKILL) loses nothing committed —
      the frames are in the OS page cache and the next open replays
      them.  A power loss or OS crash may roll back the last commits,
      and that is all it can lose: every stored row is a deterministic
      function of its run key, so the runs behind a lost commit
      re-execute to byte-identical rows (a sweep re-runs what its store
      misses, the fleet's lease sweep re-issues the chunk).  In a
      rollback journal NORMAL can corrupt the database on power loss,
      so there — and for ``":memory:"`` — the default ``FULL`` stays.

    :class:`sqlite3.Error` propagates for the caller to wrap in its own
    domain error.
    """
    db = sqlite3.connect(str(path), **connect)
    try:
        db.execute(f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS}")
        mode = db.execute("PRAGMA journal_mode = WAL").fetchone()[0]
        if mode == "wal":
            db.execute("PRAGMA synchronous = NORMAL")
        db.execute(RUNS_SCHEMA)
        db.commit()
    except sqlite3.Error:
        db.close()
        raise
    return db, mode


def entry_row(
    key: str, entry: dict, recorded_at: float | None = None
) -> tuple[str, str, str, int, float, str]:
    """One ``runs`` row (the :data:`RUNS_SCHEMA` column order) for an
    entry dict.  Shared by :meth:`SqliteStore.put` and the fleet
    coordinator's atomic chunk commit, so both write byte-identical
    rows."""
    engine, name = _entry_identity(entry)
    return (
        key,
        engine,
        name,
        1 if entry.get("ok") else 0,
        time.time() if recorded_at is None else recorded_at,
        json.dumps(entry, sort_keys=True),
    )


class SqliteStore:
    """One ``runs`` table in a ``sqlite3`` database.

    Keys are primary; ``put`` is an upsert.  Commits are batched: at
    most ``commit_every - 1`` puts are ever uncommitted (and ``close``
    / context-manager exit always commits), trading a bounded window of
    loss on a process crash for one transaction per batch instead of
    one per put on bulk writes — ``commit_every=1`` restores
    commit-per-put, and ``run_sweep`` calls :meth:`flush` after every
    recorded worker chunk (the serve daemon after every settled job),
    so their results are never in that window.  The ``engine`` and
    ``scenario_name`` columns are denormalised out of the entry to keep
    ``lab ls`` queries from parsing every report blob.  Iteration
    follows rowid, which ``INSERT OR REPLACE`` reassigns on overwrite:
    recording order, a re-recorded key last.

    Durability is :func:`connect_runs`'s policy, shared with the fleet
    coordinator: a committed put survives a crash of the writing
    process, SIGKILL included; what a power loss may take is set out
    there.

    Concurrency: the store opens in WAL journal mode with a
    ``busy_timeout`` of :data:`BUSY_TIMEOUT_MS` (5 s), so a long-lived
    writer — the :mod:`repro.serve` daemon recording settled runs — and
    concurrent ``lab stats`` / ``lab ls`` readers in other processes do
    not block each other: WAL readers see the last committed snapshot
    while a write transaction is open, and a second writer waits out the
    busy timeout instead of failing immediately.  Filesystems that
    cannot take WAL (some network mounts) silently keep the default
    journal and ``synchronous = FULL`` — the store works, just without
    concurrent readers.  ``":memory:"`` is private to this connection,
    so :mod:`repro.fleet` refuses it.
    """

    def __init__(self, path: str | Path, commit_every: int = 8) -> None:
        if commit_every < 1:
            raise StoreError(f"commit_every must be >= 1, got {commit_every}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.commit_every = commit_every
        self._uncommitted = 0
        try:
            # check_same_thread=False: a store may be opened on one
            # thread and used on another (BackgroundServer drives the
            # service on its own loop thread).  Safe because this
            # sqlite3 is built serialized (sqlite3.threadsafety == 3)
            # and each user keeps its store access on one thread at a
            # time — the service on its loop thread.
            self._db, self.journal_mode = connect_runs(
                self.path, check_same_thread=False
            )
        except sqlite3.Error as error:
            # e.g. an existing file that is not a database; surface it
            # as a domain error so the CLI reports it instead of a
            # traceback.
            raise StoreError(
                f"cannot open sqlite store {self.path}: {error}"
            ) from error

    def get(self, key: str) -> dict | None:
        row = self._db.execute(
            "SELECT entry FROM runs WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else json.loads(row[0])

    def put(self, key: str, entry: dict, recorded_at: float | None = None) -> None:
        """Persist ``entry`` under ``key``.

        ``recorded_at`` defaults to now; :meth:`merge_from` passes the
        source's timestamp through so provenance survives merging.
        """
        self._db.execute(
            "INSERT OR REPLACE INTO runs VALUES (?, ?, ?, ?, ?, ?)",
            entry_row(key, entry, recorded_at),
        )
        self._uncommitted += 1
        if self._uncommitted >= self.commit_every:
            self.flush()

    def flush(self) -> None:
        """Commit every ``put`` so far: durable across a crash of this
        process (see :func:`connect_runs` for a power loss)."""
        if self._uncommitted:
            self._db.commit()
            self._uncommitted = 0

    def merge_from(self, records: Iterable[Record]) -> int:
        """Absorb another store's :meth:`records` (or :func:`read_jsonl`)
        in one transaction; returns the number of records written.

        Key-idempotent: a held key is only replaced by a strictly newer
        ``recorded_at`` (unknown stamps merge as epoch 0; equal ones go
        to :func:`_tiebreak_wins`), so merging shards twice or in any
        order converges to the same store.
        """
        # One scan of the destination, not a recorded_at() SELECT per
        # incoming record.
        held = dict(
            self._db.execute("SELECT key, recorded_at FROM runs").fetchall()
        )
        rows = []
        for key, entry, theirs in records:
            theirs = 0.0 if theirs is None else theirs
            mine = held.get(key)
            if mine is not None and not theirs > mine:
                if theirs != mine or not _tiebreak_wins(entry, self.get(key)):
                    continue
            rows.append(entry_row(key, entry, theirs))
        self._db.executemany(
            "INSERT OR REPLACE INTO runs VALUES (?, ?, ?, ?, ?, ?)", rows
        )
        self._uncommitted += len(rows)
        self.flush()
        return len(rows)

    def keys(self) -> tuple[str, ...]:
        rows = self._db.execute("SELECT key FROM runs ORDER BY rowid").fetchall()
        return tuple(row[0] for row in rows)

    def recorded_at(self, key: str) -> float | None:
        """When ``key`` was last recorded (epoch seconds), if held."""
        row = self._db.execute(
            "SELECT recorded_at FROM runs WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row[0]

    def find(self, key_prefix: str) -> list[str]:
        """All stored keys starting with ``key_prefix`` (hex)."""
        rows = self._db.execute(
            "SELECT key FROM runs WHERE key GLOB ? ORDER BY key",
            (key_prefix + "*",),
        ).fetchall()
        return [row[0] for row in rows]

    def index(self) -> list[tuple[str, str, str, bool]]:
        """One ``(key, engine, scenario_name, ok)`` row per stored run,
        served from the denormalised columns — no report is decoded, so
        listings can filter and slice before touching any blob."""
        rows = self._db.execute(
            "SELECT key, engine, scenario_name, ok FROM runs ORDER BY rowid"
        ).fetchall()
        return [(key, engine, name, bool(ok)) for key, engine, name, ok in rows]

    def records(self) -> Iterator[Record]:
        """``(key, entry, recorded_at)`` triples in recording order."""
        # One scan, not one SELECT per key — analytics and merges walk
        # whole stores, where N+1 lookups would dominate.
        cursor = self._db.execute(
            "SELECT key, entry, recorded_at FROM runs ORDER BY rowid"
        )
        for key, raw, stamp in cursor:  # streamed, not fetchall'd
            yield key, json.loads(raw), stamp

    def entries(self) -> Iterator[tuple[str, dict]]:
        for key, entry, _ in self.records():
            yield key, entry

    def report(self, key: str) -> RunReport:
        """The stored :class:`RunReport` for ``key``.

        Raises :class:`StoreError` if the key is absent or holds a
        failure record rather than a successful run.
        """
        entry = self.get(key)
        if entry is None:
            raise StoreError(f"no run stored under key {key!r}")
        if not entry.get("ok"):
            raise StoreError(
                f"run {key[:12]} is a recorded failure: "
                f"{entry.get('error_type')}: {entry.get('message')}"
            )
        return RunReport.from_dict(entry["report"])

    def reports(self) -> list[RunReport]:
        """Every successfully stored run, in storage order."""
        return [
            RunReport.from_dict(entry["report"])
            for _, entry in self.entries()
            if entry.get("ok")
        ]

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self._db.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        # flush() no-ops when nothing is pending, so close() stays
        # idempotent (sqlite3's own close already is).
        self.flush()
        self._db.close()


def _tiebreak_wins(incoming: dict, current: dict | None) -> bool:
    """Deterministic winner between two entries with equal timestamps.

    Two shards can record the same run key at the same instant with
    entries differing only in machine-local fields (``wall_seconds``).
    Strictly-newer-wins alone would keep whichever shard merged first;
    comparing canonical serializations instead makes merge order
    irrelevant, preserving the convergence guarantee.
    """
    if current is None:
        return True
    return json.dumps(incoming, sort_keys=True) > json.dumps(
        current, sort_keys=True
    )


def _entry_identity(entry: dict) -> tuple[str, str]:
    """(engine, scenario name) of a stored entry, success or failure."""
    if entry.get("ok"):
        report = entry.get("report", {})
        return (
            report.get("engine", "?"),
            report.get("scenario", {}).get("name", ""),
        )
    return entry.get("engine", "?"), entry.get("scenario", {}).get("name", "")


#: Suffixes of JSON-lines interchange files, never opened as a store.
_JSONL_SUFFIXES = (".jsonl", ".ndjson")


def read_jsonl(path: str | Path) -> list[Record]:
    """The records of a JSON-lines file, in recording order.

    One ``{"key", "recorded_at", "entry"}`` object per line, as
    :func:`write_jsonl` and the old append-only JSONL stores wrote.
    Undecodable lines (a torn tail) are skipped; a later line for a key
    shadows an earlier one, moves it to the end, and — if unstamped —
    drops the old stamp with the entry it belonged to.  Complete lines
    none of which decodes raise :class:`StoreError`: that is garbage,
    while a file killed in its first write holds one unterminated line.
    """
    content = Path(path).read_bytes().decode("utf-8", errors="replace")
    entries: dict[str, dict] = {}
    stamps: dict[str, float] = {}
    lines = content.split("\n")
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            key, entry = record["key"], record["entry"]
        except (json.JSONDecodeError, KeyError, TypeError):
            continue  # torn write from an interrupted run
        if not isinstance(key, str) or not isinstance(entry, dict):
            continue
        entries.pop(key, None)  # a shadowed line moves to the end
        entries[key] = entry
        stamps.pop(key, None)
        if isinstance(record.get("recorded_at"), (int, float)):
            stamps[key] = float(record["recorded_at"])
    if not entries and any(line.strip() for line in lines[:-1]):
        raise StoreError(
            f"{path} holds no decodable runs despite being non-empty "
            "(corrupt, or not a run export?)"
        )
    return [(key, entry, stamps.get(key)) for key, entry in entries.items()]


def write_jsonl(store: SqliteStore, path: str | Path) -> int:
    """Overwrite ``path`` with ``store``'s records as ``sort_keys`` JSON
    lines (the :func:`read_jsonl` format); returns the line count."""
    written = 0
    with Path(path).open("w", encoding="utf-8") as out:
        for key, entry, stamp in store.records():
            record = {"key": key, "recorded_at": stamp, "entry": entry}
            out.write(json.dumps(record, sort_keys=True) + "\n")
            written += 1
    return written


def open_store(path: str | Path) -> SqliteStore:
    """The :class:`SqliteStore` at ``path`` (created if needed), or
    ``":memory:"``; a JSON-lines path raises :class:`StoreError`."""
    if Path(path).suffix in _JSONL_SUFFIXES:
        raise StoreError(
            f"{path} is a JSON-lines file, not a run store: import it with "
            f"`lab merge DEST {path}`, write one with `lab export`"
        )
    return SqliteStore(path)
