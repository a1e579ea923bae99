"""``repro.fleet`` — claim/lease work-queue coordination for sweep fleets.

PR 3 made run stores mergeable and sweeps resumable, but one grid was
still drained by one process.  This package adds the missing
*coordination* so N workers (on M machines sharing a filesystem, or
locally) drain one grid without duplicating work:

* :class:`~repro.fleet.coordinator.FleetCoordinator` — shards a sweep
  into claimable chunks content-addressed by
  :func:`repro.api.sweep.run_key` (warm store entries are never
  re-claimed), and runs the lease protocol over the SQLite run store:
  claims with heartbeats and expiry, so a dead worker's chunk is
  re-issued to the next claimant, and an **atomic commit** that records
  a chunk's runs and releases its lease in one transaction — the
  crash-recovery discipline of Golab's *Recoverable Consensus in
  Shared Memory* applied to our own infrastructure.
* :class:`~repro.fleet.worker.FleetWorker` — the ``lab work`` loop:
  claim → execute (via :func:`repro.api.sweep.execute_payload`, with
  the analytic fast path honoured) → heartbeat → commit, with seeded
  backoff+jitter on claim contention.
* :func:`~repro.fleet.driver.run_fleet` — the ``lab sweep --fleet N``
  driver: enqueues a grid, spawns local worker processes, monitors
  their liveness, and reports the drained store.

The fleet coordinates over a file-backed
:class:`~repro.lab.store.SqliteStore` (WAL + busy timeout +
transactions, safe for concurrent writers).  ``":memory:"`` (one
connection per process, nothing shared) and JSON-lines paths (an
interchange format, not a store) are refused with
:class:`~repro.errors.UnsafeFleetStoreError` before any worker starts.
"""

from repro.errors import FleetError, LeaseLostError, UnsafeFleetStoreError
from repro.fleet.backoff import SeededBackoff
from repro.fleet.coordinator import (
    CHUNK_STATE_DONE,
    CHUNK_STATE_LEASED,
    CHUNK_STATE_PENDING,
    ChunkClaim,
    EnqueueReceipt,
    FleetConfig,
    FleetCoordinator,
    ensure_fleet_path,
)
from repro.fleet.driver import FleetReport, run_fleet
from repro.fleet.worker import FleetWorker, WorkerStats, default_worker_id

__all__ = [
    "CHUNK_STATE_DONE",
    "CHUNK_STATE_LEASED",
    "CHUNK_STATE_PENDING",
    "ChunkClaim",
    "EnqueueReceipt",
    "FleetConfig",
    "FleetCoordinator",
    "FleetError",
    "FleetReport",
    "FleetWorker",
    "LeaseLostError",
    "SeededBackoff",
    "UnsafeFleetStoreError",
    "WorkerStats",
    "default_worker_id",
    "ensure_fleet_path",
    "run_fleet",
]
