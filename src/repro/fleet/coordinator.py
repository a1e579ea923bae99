"""The claim/lease protocol over the SQLite run store.

One SQLite database plays both roles: the ``runs`` table is the
ordinary content-addressed :class:`~repro.lab.store.SqliteStore`, and
three coordination tables lay beside it —

``fleet_chunks``
    The claimable units.  A chunk is a short ordered slice of a sweep,
    content-addressed by the SHA-256 of its run keys; its ``state``
    walks ``pending → leased → done`` and never backwards except by
    lease expiry.
``fleet_items``
    One row per queued run, keyed by :func:`repro.api.sweep.run_key`
    (the table's primary key *is* the content address): the engine
    name and canonical scenario JSON a claimant needs to execute it.
    Enqueueing is idempotent at key granularity — keys already warm in
    ``runs`` or already queued are skipped, so re-enqueueing a grid
    after a driver crash never double-schedules work.
``fleet_workers``
    Heartbeat bookkeeping per worker id: first/last seen, chunks and
    items committed.

Every mutation runs inside one ``BEGIN IMMEDIATE`` transaction, so
SQLite's writer lock is the mutual exclusion and the WAL journal +
busy timeout (inherited from the store's own concurrency discipline)
arbitrate contention between workers.

**Lease protocol.**  ``claim`` first re-issues every lease whose
expiry lies more than ``skew_grace`` in the past (a dead worker's
chunk returns to ``pending``), then leases the lowest-``seq`` pending
chunk to the caller for ``lease_ttl`` seconds.  ``heartbeat`` extends
a held lease monotonically (``MAX(lease_expires, now + ttl)``, so a
worker whose clock runs behind can never *shorten* its own lease) and
raises :class:`~repro.errors.LeaseLostError` the moment the lease is
no longer the caller's.  ``skew_grace`` absorbs clock disagreement
between machines: a lease is only treated as dead once it is expired
by more than the grace on the observer's clock.

**Atomic commit (the 2PC-adjacent part).**  ``commit_chunk`` releases
the lease and inserts the chunk's run rows in the *same* transaction:
a worker crashing before the commit leaves nothing behind (the chunk
re-issues and re-executes — runs are deterministic and
content-addressed, so the retry converges on identical rows), and a
crash after it leaves both the runs and the ``done`` mark.  There is
no window in which runs are recorded but the chunk re-issues (no
duplicated work) or the chunk is done but its runs are missing (no
lost work).

Wall-clock time is inherent to lease expiry, so this module is
deliberately *not* in the lint ``DeterminismRule`` wall-clock scope —
like the store's ``recorded_at``, lease timestamps are coordination
metadata that never enters a run key.  The random and set-iteration
scopes do apply (see the seeded :mod:`repro.fleet.backoff`).
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence, cast

from repro.api.sweep import SweepItem, run_key
from repro.crypto.hashing import sha256
from repro.errors import FleetError, LeaseLostError, UnsafeFleetStoreError
from repro.lab.store import _JSONL_SUFFIXES, connect_runs, entry_row

Clock = Callable[[], float]

CHUNK_STATE_PENDING = "pending"
CHUNK_STATE_LEASED = "leased"
CHUNK_STATE_DONE = "done"


def ensure_fleet_path(path: str | Path) -> Path:
    """The store path, validated as a concurrent-writer-safe backend.

    Mirrors :func:`repro.lab.store.open_store`'s suffix check: JSON-lines
    paths (an interchange format, not a store) and ``":memory:"`` (one
    connection per process, nothing shared) are refused with a
    structured :class:`~repro.errors.UnsafeFleetStoreError` naming the
    file-backed SQLite alternative.
    """
    text = str(path)
    if text == ":memory:":
        raise UnsafeFleetStoreError(text, "memory")
    resolved = Path(text)
    if resolved.suffix in _JSONL_SUFFIXES:
        raise UnsafeFleetStoreError(text, "jsonl")
    return resolved


@dataclass(frozen=True)
class FleetConfig:
    """Lease parameters shared by coordinator, workers, and driver.

    ``lease_ttl`` must comfortably exceed the slowest single scenario a
    chunk can contain — workers heartbeat after every item, so the TTL
    only has to outlive one execution, not a whole chunk.
    ``skew_grace`` is the clock-disagreement allowance: a lease is
    re-issued only once it is expired by more than the grace on the
    *observer's* clock, so workers whose clocks differ by less than the
    grace never steal each other's live leases.
    """

    lease_ttl: float = 30.0
    skew_grace: float = 5.0
    chunk_size: int = 4

    def __post_init__(self) -> None:
        if self.lease_ttl <= 0:
            raise FleetError(f"lease_ttl must be > 0, got {self.lease_ttl}")
        if self.skew_grace < 0:
            raise FleetError(f"skew_grace must be >= 0, got {self.skew_grace}")
        if self.chunk_size < 1:
            raise FleetError(f"chunk_size must be >= 1, got {self.chunk_size}")


@dataclass(frozen=True)
class ChunkClaim:
    """One successfully claimed chunk: everything a worker needs."""

    chunk_id: str
    run_keys: tuple[str, ...]
    payloads: tuple[tuple[str, dict[str, Any]], ...]
    """``(engine_name, scenario_dict)`` pairs, in chunk order — exactly
    the shape :func:`repro.api.sweep.execute_payload` consumes."""
    attempt: int
    """1 on first issue; >1 means a previous claimant's lease expired."""
    lease_expires: float

    def __len__(self) -> int:
        return len(self.run_keys)


@dataclass(frozen=True)
class EnqueueReceipt:
    """What one :meth:`FleetCoordinator.enqueue` call did."""

    total: int
    """Items offered (after in-batch key dedup)."""
    enqueued: int
    """Items newly queued as claimable chunk work."""
    chunks: int
    """Chunks created for the newly queued items."""
    warm: int
    """Items skipped because the run store already holds their key."""
    queued: int
    """Items skipped because an earlier enqueue already queued them."""


class FleetCoordinator:
    """Claim/lease work-queue coordination over one SQLite database.

    The coordinator is stateless between calls — every fact lives in
    the database — so any number of coordinators (one per worker
    process, plus the driver's) may open the same path concurrently,
    and reopening after a crash *re-adopts* the queue as-is: done
    chunks stay done, live leases stay owned by their workers, and
    only genuinely expired leases are re-issued.
    """

    _FLEET_SCHEMA = """
        CREATE TABLE IF NOT EXISTS fleet_chunks (
            chunk_id      TEXT PRIMARY KEY,
            seq           INTEGER NOT NULL,
            size          INTEGER NOT NULL,
            state         TEXT NOT NULL,
            owner         TEXT,
            lease_expires REAL,
            attempts      INTEGER NOT NULL DEFAULT 0,
            enqueued_at   REAL NOT NULL,
            completed_at  REAL
        );
        CREATE TABLE IF NOT EXISTS fleet_items (
            run_key  TEXT PRIMARY KEY,
            chunk_id TEXT NOT NULL,
            seq      INTEGER NOT NULL,
            engine   TEXT NOT NULL,
            scenario TEXT NOT NULL
        );
        CREATE INDEX IF NOT EXISTS fleet_items_chunk
            ON fleet_items(chunk_id, seq);
        CREATE TABLE IF NOT EXISTS fleet_workers (
            worker_id   TEXT PRIMARY KEY,
            started_at  REAL NOT NULL,
            seen_at     REAL NOT NULL,
            chunks_done INTEGER NOT NULL DEFAULT 0,
            items_done  INTEGER NOT NULL DEFAULT 0
        );
    """

    def __init__(
        self,
        path: str | Path,
        config: FleetConfig | None = None,
        clock: Clock = time.time,
        busy_timeout_ms: int = 5000,
    ) -> None:
        self.path = ensure_fleet_path(path)
        self.config = config or FleetConfig()
        self._clock = clock
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            # Autocommit mode: transactions are explicit BEGIN IMMEDIATE
            # blocks, never sqlite3's implicit ones, so claim/commit
            # atomicity is exactly the statements between BEGIN and
            # COMMIT below.
            self._db, _ = connect_runs(
                self.path, busy_timeout_ms, isolation_level=None
            )
            self._db.executescript(self._FLEET_SCHEMA)
        except sqlite3.Error as error:
            raise FleetError(
                f"cannot open fleet store {self.path}: {error}"
            ) from error

    # -- plumbing ------------------------------------------------------------

    @contextmanager
    def _exclusive(self) -> Iterator[sqlite3.Connection]:
        """One ``BEGIN IMMEDIATE`` transaction: all or nothing."""
        self._db.execute("BEGIN IMMEDIATE")
        try:
            yield self._db
        except BaseException:
            self._db.execute("ROLLBACK")
            raise
        else:
            self._db.execute("COMMIT")

    def _touch_worker(
        self, db: sqlite3.Connection, worker_id: str, now: float
    ) -> None:
        db.execute(
            "INSERT INTO fleet_workers (worker_id, started_at, seen_at) "
            "VALUES (?, ?, ?) "
            "ON CONFLICT(worker_id) DO UPDATE SET seen_at = excluded.seen_at",
            (worker_id, now, now),
        )

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "FleetCoordinator":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- enqueue -------------------------------------------------------------

    def enqueue(self, items: Sequence[SweepItem]) -> EnqueueReceipt:
        """Shard ``items`` into claimable chunks, skipping warm keys.

        Content addressing does the dedup: an item whose
        :func:`~repro.api.sweep.run_key` is already in the ``runs``
        table (a warm store entry) or already queued by an earlier
        enqueue is skipped, so enqueueing is idempotent and a resumed
        fleet only schedules the genuinely cold residue.
        """
        now = self._clock()
        keyed: list[tuple[str, str, str]] = []
        seen: set[str] = set()
        for engine_name, scenario in items:
            key = run_key(engine_name, scenario)
            if key in seen:
                continue
            seen.add(key)
            keyed.append(
                (key, engine_name, json.dumps(scenario.to_dict(), sort_keys=True))
            )
        warm = 0
        queued = 0
        residue: list[tuple[str, str, str]] = []
        with self._exclusive() as db:
            for key, engine_name, scenario_json in keyed:
                if db.execute(
                    "SELECT 1 FROM runs WHERE key = ?", (key,)
                ).fetchone():
                    warm += 1
                elif db.execute(
                    "SELECT 1 FROM fleet_items WHERE run_key = ?", (key,)
                ).fetchone():
                    queued += 1
                else:
                    residue.append((key, engine_name, scenario_json))
            row = db.execute(
                "SELECT COALESCE(MAX(seq), -1) + 1 FROM fleet_chunks"
            ).fetchone()
            next_seq = int(row[0])
            size = self.config.chunk_size
            chunks = [
                residue[offset : offset + size]
                for offset in range(0, len(residue), size)
            ]
            for chunk_offset, chunk in enumerate(chunks):
                chunk_id = sha256(
                    "\n".join(key for key, _, _ in chunk).encode()
                ).hex()
                db.execute(
                    "INSERT OR IGNORE INTO fleet_chunks "
                    "(chunk_id, seq, size, state, attempts, enqueued_at) "
                    "VALUES (?, ?, ?, ?, 0, ?)",
                    (
                        chunk_id,
                        next_seq + chunk_offset,
                        len(chunk),
                        CHUNK_STATE_PENDING,
                        now,
                    ),
                )
                db.executemany(
                    "INSERT OR IGNORE INTO fleet_items "
                    "(run_key, chunk_id, seq, engine, scenario) "
                    "VALUES (?, ?, ?, ?, ?)",
                    [
                        (key, chunk_id, item_seq, engine_name, scenario_json)
                        for item_seq, (key, engine_name, scenario_json) in enumerate(
                            chunk
                        )
                    ],
                )
            return EnqueueReceipt(
                total=len(keyed),
                enqueued=len(residue),
                chunks=len(chunks),
                warm=warm,
                queued=queued,
            )

    # -- the lease protocol --------------------------------------------------

    def claim(self, worker_id: str) -> ChunkClaim | None:
        """Lease the next pending chunk to ``worker_id``, or ``None``.

        Expired leases (dead workers) are re-issued first, so a claim
        is also the recovery step: the next claimant after a crash
        inherits the crashed worker's chunk.  ``None`` means nothing is
        claimable *right now* — either the queue is drained (check
        :meth:`outstanding`) or every remaining chunk is live-leased by
        someone else (back off and retry).
        """
        now = self._clock()
        with self._exclusive() as db:
            self._touch_worker(db, worker_id, now)
            db.execute(
                "UPDATE fleet_chunks "
                "SET state = ?, owner = NULL, lease_expires = NULL "
                "WHERE state = ? AND lease_expires + ? < ?",
                (
                    CHUNK_STATE_PENDING,
                    CHUNK_STATE_LEASED,
                    self.config.skew_grace,
                    now,
                ),
            )
            row = db.execute(
                "SELECT chunk_id, attempts FROM fleet_chunks "
                "WHERE state = ? ORDER BY seq LIMIT 1",
                (CHUNK_STATE_PENDING,),
            ).fetchone()
            if row is None:
                return None
            chunk_id, attempts = str(row[0]), int(row[1])
            expires = now + self.config.lease_ttl
            db.execute(
                "UPDATE fleet_chunks "
                "SET state = ?, owner = ?, lease_expires = ?, "
                "attempts = attempts + 1 WHERE chunk_id = ?",
                (CHUNK_STATE_LEASED, worker_id, expires, chunk_id),
            )
            item_rows = db.execute(
                "SELECT run_key, engine, scenario FROM fleet_items "
                "WHERE chunk_id = ? ORDER BY seq",
                (chunk_id,),
            ).fetchall()
        return ChunkClaim(
            chunk_id=chunk_id,
            run_keys=tuple(str(key) for key, _, _ in item_rows),
            payloads=tuple(
                (str(engine_name), cast("dict[str, Any]", json.loads(scenario_json)))
                for _, engine_name, scenario_json in item_rows
            ),
            attempt=attempts + 1,
            lease_expires=expires,
        )

    def heartbeat(self, chunk_id: str, worker_id: str) -> float:
        """Extend ``worker_id``'s lease on ``chunk_id``; returns the new
        expiry.

        The extension is monotonic (``MAX`` with the current expiry) so
        a heartbeat from a clock-skewed worker can never shorten its
        own lease.  Raises :class:`~repro.errors.LeaseLostError` when
        the lease is no longer held — expired past the grace and
        re-issued, or committed by someone else — in which case the
        worker must discard the chunk's results.
        """
        now = self._clock()
        expires = now + self.config.lease_ttl
        with self._exclusive() as db:
            self._touch_worker(db, worker_id, now)
            cursor = db.execute(
                "UPDATE fleet_chunks "
                "SET lease_expires = MAX(lease_expires, ?) "
                "WHERE chunk_id = ? AND owner = ? AND state = ?",
                (expires, chunk_id, worker_id, CHUNK_STATE_LEASED),
            )
            if cursor.rowcount == 0:
                raise LeaseLostError(chunk_id, worker_id, "heartbeat")
        return expires

    def commit_chunk(
        self,
        chunk_id: str,
        worker_id: str,
        entries: Sequence[tuple[str, dict[str, Any]]],
    ) -> None:
        """Atomically record ``entries`` and release the lease.

        The lease release (``leased → done``, ownership verified) and
        the ``runs`` inserts share one transaction: either both happen
        or neither does, so a crash mid-commit can never lose runs
        behind a done mark or leave committed runs on a chunk that
        re-issues.  Raises :class:`~repro.errors.LeaseLostError` —
        writing nothing — when the lease was lost before commit.
        """
        now = self._clock()
        with self._exclusive() as db:
            cursor = db.execute(
                "UPDATE fleet_chunks "
                "SET state = ?, owner = NULL, lease_expires = NULL, "
                "completed_at = ? "
                "WHERE chunk_id = ? AND owner = ? AND state = ?",
                (CHUNK_STATE_DONE, now, chunk_id, worker_id, CHUNK_STATE_LEASED),
            )
            if cursor.rowcount == 0:
                raise LeaseLostError(chunk_id, worker_id, "commit")
            db.executemany(
                "INSERT OR REPLACE INTO runs VALUES (?, ?, ?, ?, ?, ?)",
                [entry_row(key, entry, now) for key, entry in entries],
            )
            db.execute(
                "UPDATE fleet_workers SET chunks_done = chunks_done + 1, "
                "items_done = items_done + ?, seen_at = ? WHERE worker_id = ?",
                (len(entries), now, worker_id),
            )

    def release(self, chunk_id: str, worker_id: str) -> bool:
        """Voluntarily return a held lease (graceful worker shutdown).

        The chunk goes straight back to ``pending`` for the next
        claimant.  Returns whether a lease was actually released
        (``False`` if it had already expired and been re-issued —
        which is fine: the work is in someone else's hands).
        """
        with self._exclusive() as db:
            cursor = db.execute(
                "UPDATE fleet_chunks "
                "SET state = ?, owner = NULL, lease_expires = NULL "
                "WHERE chunk_id = ? AND owner = ? AND state = ?",
                (CHUNK_STATE_PENDING, chunk_id, worker_id, CHUNK_STATE_LEASED),
            )
            return cursor.rowcount > 0

    # -- observation ---------------------------------------------------------

    def outstanding(self) -> int:
        """Chunks not yet committed (pending + leased).  Zero means the
        queue is drained and workers may exit."""
        row = self._db.execute(
            "SELECT COUNT(*) FROM fleet_chunks WHERE state != ?",
            (CHUNK_STATE_DONE,),
        ).fetchone()
        return int(row[0])

    def status(self) -> dict[str, Any]:
        """One structured snapshot of the queue: counts, every chunk's
        claim/lease state, and every worker's heartbeat age.  This is
        the payload behind ``lab fleet status --json``."""
        now = self._clock()
        counts = {
            CHUNK_STATE_PENDING: 0,
            CHUNK_STATE_LEASED: 0,
            CHUNK_STATE_DONE: 0,
        }
        for state, count in self._db.execute(
            "SELECT state, COUNT(*) FROM fleet_chunks GROUP BY state"
        ).fetchall():
            counts[str(state)] = int(count)
        item_rows = self._db.execute(
            "SELECT "
            "  (SELECT COUNT(*) FROM fleet_items), "
            "  (SELECT COALESCE(SUM(size), 0) FROM fleet_chunks "
            "   WHERE state = ?)",
            (CHUNK_STATE_DONE,),
        ).fetchone()
        chunks = [
            {
                "chunk_id": str(chunk_id),
                "seq": int(seq),
                "size": int(size),
                "state": str(state),
                "owner": None if owner is None else str(owner),
                "attempts": int(attempts),
                "lease_expires_in": (
                    None if expires is None else round(float(expires) - now, 3)
                ),
            }
            for chunk_id, seq, size, state, owner, expires, attempts in (
                self._db.execute(
                    "SELECT chunk_id, seq, size, state, owner, "
                    "lease_expires, attempts FROM fleet_chunks ORDER BY seq"
                ).fetchall()
            )
        ]
        workers = [
            {
                "worker_id": str(worker_id),
                "seen_age": round(now - float(seen_at), 3),
                "chunks_done": int(chunks_done),
                "items_done": int(items_done),
            }
            for worker_id, seen_at, chunks_done, items_done in (
                self._db.execute(
                    "SELECT worker_id, seen_at, chunks_done, items_done "
                    "FROM fleet_workers ORDER BY worker_id"
                ).fetchall()
            )
        ]
        return {
            "store": str(self.path),
            "config": {
                "lease_ttl": self.config.lease_ttl,
                "skew_grace": self.config.skew_grace,
                "chunk_size": self.config.chunk_size,
            },
            "counts": {
                **counts,
                "items_queued": int(item_rows[0]),
                "items_done": int(item_rows[1]),
            },
            "chunks": chunks,
            "workers": workers,
        }
