"""The ``lab work`` loop: claim → execute → heartbeat → commit.

A :class:`FleetWorker` is one drain process.  It owns a private
:class:`~repro.fleet.coordinator.FleetCoordinator` on the shared SQLite
path and loops:

1. **claim** the next pending chunk (re-issuing expired leases as a
   side effect — every claim is also the fleet's recovery step);
2. **execute** each item through
   :func:`repro.api.sweep.execute_payload` — the same unit
   ``run_sweep`` fans out to its process pool, so fleet results are
   key-for-key identical to a serial sweep, analytic fast path
   included;
3. **heartbeat** after an item once the lease is
   :data:`HEARTBEAT_AGE` of ``lease_ttl`` old (since the claim or the
   last heartbeat), so a chunk of fast items costs no heartbeat
   transaction, and the lease TTL only has to outlive one scenario
   plus that age, not a whole chunk;
4. **commit** the chunk's entries atomically with the lease release.

A :class:`~repro.errors.LeaseLostError` anywhere in 3–4 means another
worker legitimately owns the chunk now (this worker stalled past the
TTL, or the coordinator judged it dead): the computed entries are
*discarded*, never written — the store only ever receives rows through
a live lease, which is what makes a SIGKILLed worker harmless.

When ``claim`` yields nothing the worker consults
:meth:`~repro.fleet.coordinator.FleetCoordinator.outstanding`: zero
means the queue is drained and the loop exits; otherwise the remaining
chunks are live-leased elsewhere and the worker backs off on its
seeded jitter stream (:class:`~repro.fleet.backoff.SeededBackoff`)
before retrying — it may yet inherit a chunk from a dying peer.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.api.sweep import execute_payload
from repro.errors import LeaseLostError
from repro.fleet.backoff import SeededBackoff
from repro.fleet.coordinator import Clock, FleetConfig, FleetCoordinator

__all__ = ["FleetWorker", "WorkerStats", "default_worker_id"]

#: After each item a worker heartbeats only if its lease is at least
#: this fraction of ``lease_ttl`` old, counted from the claim or the
#: last heartbeat.  An item that starts just short of that age must end
#: before the lease expires, so the longest item a lease still covers
#: is ``(1 - HEARTBEAT_AGE) * lease_ttl``: 45 s of a 60 s TTL, 22.5 s of
#: the default 30 s (``skew_grace`` adds its slack before a re-issue).
#: A lease lost in between is still caught, at the commit.
HEARTBEAT_AGE = 0.25


def default_worker_id() -> str:
    """``{hostname}-{pid}``: unique per process on a shared filesystem."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class WorkerStats:
    """What one worker's :meth:`FleetWorker.run` actually did."""

    worker_id: str
    claims: int = 0
    chunks_committed: int = 0
    items_executed: int = 0
    items_committed: int = 0
    leases_lost: int = 0
    idle_waits: int = 0
    wall_seconds: float = field(default=0.0)

    def to_dict(self) -> dict[str, Any]:
        return {
            "worker_id": self.worker_id,
            "claims": self.claims,
            "chunks_committed": self.chunks_committed,
            "items_executed": self.items_executed,
            "items_committed": self.items_committed,
            "leases_lost": self.leases_lost,
            "idle_waits": self.idle_waits,
            "wall_seconds": round(self.wall_seconds, 6),
        }


class FleetWorker:
    """One claim/execute/commit drain loop over a shared fleet store."""

    def __init__(
        self,
        path: str | Path,
        config: FleetConfig | None = None,
        worker_id: str | None = None,
        fast_path: bool = False,
        clock: Clock = time.time,
        sleep: Callable[[float], None] = time.sleep,
        backoff: SeededBackoff | None = None,
    ) -> None:
        self.worker_id = worker_id or default_worker_id()
        self.fast_path = fast_path
        self.coordinator = FleetCoordinator(path, config=config, clock=clock)
        self._clock = clock
        self._sleep = sleep
        self._backoff = backoff or SeededBackoff.for_worker(self.worker_id)

    def close(self) -> None:
        self.coordinator.close()

    def __enter__(self) -> "FleetWorker":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def run(self, max_chunks: int | None = None) -> WorkerStats:
        """Drain until the queue is empty (or ``max_chunks`` committed).

        Returns the worker's own accounting; the authoritative fleet
        totals live in the store's ``fleet_workers`` table.
        """
        stats = WorkerStats(worker_id=self.worker_id)
        started = self._clock()
        while max_chunks is None or stats.chunks_committed < max_chunks:
            claim = self.coordinator.claim(self.worker_id)
            if claim is None:
                if self.coordinator.outstanding() == 0:
                    break
                stats.idle_waits += 1
                self._sleep(self._backoff.next_delay())
                continue
            self._backoff.reset()
            stats.claims += 1
            if self._drain_chunk(claim.chunk_id, claim, stats):
                stats.chunks_committed += 1
                stats.items_committed += len(claim)
        stats.wall_seconds = self._clock() - started
        return stats

    def _drain_chunk(
        self,
        chunk_id: str,
        claim: Any,
        stats: WorkerStats,
    ) -> bool:
        """Execute and commit one claimed chunk; ``False`` if the lease
        was lost (all computed entries discarded)."""
        entries: list[tuple[str, dict[str, Any]]] = []
        ttl = self.coordinator.config.lease_ttl
        beat_at = claim.lease_expires - ttl
        try:
            for key, payload in zip(claim.run_keys, claim.payloads):
                entries.append((key, execute_payload(payload, self.fast_path)))
                stats.items_executed += 1
                if self._clock() - beat_at >= HEARTBEAT_AGE * ttl:
                    beat_at = self.coordinator.heartbeat(chunk_id, self.worker_id) - ttl
            self.coordinator.commit_chunk(chunk_id, self.worker_id, entries)
        except LeaseLostError:
            stats.leases_lost += 1
            return False
        return True
