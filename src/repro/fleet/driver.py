"""The ``lab sweep --fleet N`` driver: enqueue, spawn, monitor, report.

:func:`run_fleet` is the single-machine convenience over the
coordinator: it shards a sweep into the shared SQLite store, spawns
``workers`` local ``python -m repro lab work`` processes against it,
and watches liveness until the queue drains.  The driver is *not* a
single point of failure for correctness — all coordination state lives
in the store, so a killed driver leaves a queue any later fleet (or a
plain serial ``run_sweep`` against the same store) resumes exactly.
What the driver adds is supervision: it notices when every worker has
died with work still outstanding (raising
:class:`~repro.errors.FleetError` instead of hanging forever) and it
folds the drained store into a :class:`FleetReport`.

Workers are separate OS processes on purpose — the lease protocol is
exercised across real process boundaries, SIGKILL included, exactly as
it would be across machines sharing a filesystem.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.api.sweep import Sweep, SweepItem
from repro.errors import FleetError
from repro.fleet.coordinator import (
    Clock,
    EnqueueReceipt,
    FleetConfig,
    FleetCoordinator,
)
from repro.lab.store import open_store

__all__ = ["FleetReport", "run_fleet"]

_SRC_ROOT = Path(__file__).resolve().parents[2]


@dataclass(frozen=True)
class FleetReport:
    """What one :func:`run_fleet` drain did, end to end."""

    store: str
    workers: int
    receipt: EnqueueReceipt
    exit_codes: dict[str, int]
    status: dict[str, Any]
    wall_seconds: float
    merged: int | None
    """Records folded into ``into`` (``None`` when no merge target)."""

    def to_dict(self) -> dict[str, Any]:
        return {
            "store": self.store,
            "workers": self.workers,
            "receipt": {
                "total": self.receipt.total,
                "enqueued": self.receipt.enqueued,
                "chunks": self.receipt.chunks,
                "warm": self.receipt.warm,
                "queued": self.receipt.queued,
            },
            "exit_codes": dict(self.exit_codes),
            "counts": self.status.get("counts", {}),
            "wall_seconds": round(self.wall_seconds, 6),
            "merged": self.merged,
        }


def _worker_command(
    store: Path,
    config: FleetConfig,
    worker_id: str,
    fast_path: bool,
) -> list[str]:
    command = [
        sys.executable,
        "-m",
        "repro",
        "lab",
        "work",
        "--store",
        str(store),
        "--worker-id",
        worker_id,
        "--lease-ttl",
        str(config.lease_ttl),
        "--skew-grace",
        str(config.skew_grace),
        "--chunk-size",
        str(config.chunk_size),
    ]
    if fast_path:
        command.append("--fast-path")
    return command


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    parts = [str(_SRC_ROOT)] + ([existing] if existing else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def run_fleet(
    sweep: Sweep | Sequence[SweepItem],
    path: str | Path,
    workers: int = 4,
    config: FleetConfig | None = None,
    fast_path: bool = False,
    into: str | Path | None = None,
    timeout: float | None = None,
    poll_interval: float = 0.2,
    clock: Clock = time.time,
    sleep: Callable[[float], None] = time.sleep,
) -> FleetReport:
    """Drain ``sweep`` into the SQLite store at ``path`` with a local
    worker fleet.

    Enqueueing is warm-skipping and idempotent (see
    :meth:`~repro.fleet.coordinator.FleetCoordinator.enqueue`), so a
    fully warm sweep spawns zero workers.  Raises
    :class:`~repro.errors.FleetError` if every worker dies with chunks
    outstanding, or if ``timeout`` elapses before the drain completes
    (surviving workers are terminated first in both cases).

    ``into`` optionally folds the drained store into another store via
    :meth:`~repro.lab.store.SqliteStore.merge_from` — the sharded-sweep
    merge path, unchanged.
    """
    if workers < 1:
        raise FleetError(f"fleet needs at least one worker, got {workers}")
    items = sweep.items() if isinstance(sweep, Sweep) else tuple(sweep)
    started = clock()
    with FleetCoordinator(path, config=config, clock=clock) as coordinator:
        active_config = coordinator.config
        store_path = coordinator.path
        receipt = coordinator.enqueue(items)
        exit_codes: dict[str, int] = {}
        if coordinator.outstanding() > 0:
            procs: dict[str, subprocess.Popen[bytes]] = {}
            env = _worker_env()
            for index in range(workers):
                worker_id = f"fleet-{os.getpid()}-w{index}"
                procs[worker_id] = subprocess.Popen(
                    _worker_command(
                        store_path, active_config, worker_id, fast_path
                    ),
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            try:
                _supervise(
                    coordinator, procs, started, timeout, poll_interval,
                    clock, sleep,
                )
            finally:
                for worker_id, proc in procs.items():
                    exit_codes[worker_id] = _reap(proc)
        status = coordinator.status()
    merged: int | None = None
    if into is not None:
        with open_store(str(into)) as dest, open_store(str(store_path)) as src:
            merged = dest.merge_from(src.records())
    return FleetReport(
        store=str(store_path),
        workers=workers,
        receipt=receipt,
        exit_codes=exit_codes,
        status=status,
        wall_seconds=clock() - started,
        merged=merged,
    )


def _supervise(
    coordinator: FleetCoordinator,
    procs: dict[str, "subprocess.Popen[bytes]"],
    started: float,
    timeout: float | None,
    poll_interval: float,
    clock: Clock,
    sleep: Callable[[float], None],
) -> None:
    """Watch the drain; raise :class:`~repro.errors.FleetError` on
    fleet-wide death or timeout."""
    while True:
        outstanding = coordinator.outstanding()
        if outstanding == 0:
            return
        alive = sum(1 for proc in procs.values() if proc.poll() is None)
        if alive == 0:
            raise FleetError(
                f"all {len(procs)} fleet workers exited with {outstanding} "
                "chunks outstanding — see 'lab fleet status' for the queue"
            )
        if timeout is not None and clock() - started > timeout:
            raise FleetError(
                f"fleet drain exceeded {timeout:.1f}s with {outstanding} "
                f"chunks outstanding ({alive} workers still alive)"
            )
        sleep(poll_interval)


def _reap(proc: "subprocess.Popen[bytes]") -> int:
    """Collect a worker's exit code, escalating terminate → kill for
    stragglers (a drained queue makes workers exit on their own; this
    only fires on supervision errors)."""
    try:
        return proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            return proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            return proc.wait()
