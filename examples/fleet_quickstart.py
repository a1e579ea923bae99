"""`lab run --fleet` quickstart: drain one sweep with a worker fleet.

The claim/lease coordinator (:mod:`repro.fleet`) lets N worker
processes drain one sweep grid through a shared SQLite store without
duplicating work: chunks are content-addressed by run key, leases
expire when workers die, and a chunk's runs commit atomically with its
lease release.  The CLI equivalent of everything below::

    python -m repro lab run --preset smoke --fleet 4 --store fleet.sqlite
    python -m repro lab fleet status --store fleet.sqlite
    python -m repro lab work --store fleet.sqlite        # one more worker

Run:  python examples/fleet_quickstart.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import Scenario, Sweep, run_sweep
from repro.digraph.generators import cycle_digraph, triangle
from repro.errors import UnsafeFleetStoreError
from repro.fleet import FleetConfig, FleetCoordinator, FleetWorker, run_fleet
from repro.lab.store import open_store


def build_sweep() -> Sweep:
    sweep = Sweep("fleet-demo")
    for index, topology in enumerate([triangle(), cycle_digraph(4)]):
        for seed in range(4):
            sweep.add(
                "herlihy",
                Scenario(
                    topology=topology,
                    seed=seed,
                    name=f"demo:{index}#{seed}",
                ),
            )
    return sweep


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="fleet-demo-") as tmp:
        demo(Path(tmp))


def demo(tmp: Path) -> None:
    sweep = build_sweep()
    print(f"Sweep: {len(sweep)} runs (herlihy over two small topologies)")

    # The reference answer: a plain serial sweep.
    with open_store(str(tmp / "serial.sqlite")) as serial:
        run_sweep(sweep, store=serial, parallel=False)
        expected = set(serial.keys())

    # Drain the same grid with a 2-worker local fleet.  Workers are
    # separate OS processes; the SQLite store is the only coordination
    # channel (lease TTL 30 s, renewed once a quarter of it has passed,
    # chunks of 4 runs).
    store = tmp / "fleet.sqlite"
    report = run_fleet(
        sweep, store, workers=2, config=FleetConfig(chunk_size=4)
    )
    print(
        f"\nFleet drain: {report.workers} workers, "
        f"{report.receipt.chunks} chunks, "
        f"{report.receipt.enqueued} runs in {report.wall_seconds:.2f}s"
    )

    with open_store(str(store)) as drained:
        assert set(drained.keys()) == expected
    print("Parity: drained store holds exactly the serial key set")

    # Content addressing makes re-enqueueing free: every key is warm.
    warm = run_fleet(sweep, store, workers=2)
    print(
        f"Warm re-run: {warm.receipt.warm} warm, "
        f"{warm.receipt.enqueued} enqueued, "
        f"{len(warm.exit_codes)} workers spawned"
    )

    # The coordination state is inspectable (lab fleet status --json).
    with FleetCoordinator(store) as coordinator:
        counts = coordinator.status()["counts"]
    print(
        f"Status: {counts['done']} chunks done, "
        f"{counts['items_done']}/{counts['items_queued']} items"
    )

    # Crash recovery, compressed to one paragraph: a worker claims a
    # chunk and dies (we just... stop heartbeating); once the lease is
    # expired past the skew grace, the next claimant inherits the
    # chunk.  An injected clock stands in for the waiting.
    clock_now = [1000.0]
    config = FleetConfig(lease_ttl=10.0, skew_grace=2.0, chunk_size=4)
    recovery_store = tmp / "recovery.sqlite"
    with FleetCoordinator(
        recovery_store, config, clock=lambda: clock_now[0]
    ) as coordinator:
        coordinator.enqueue(sweep.items()[:4])
        doomed = coordinator.claim("doomed-worker")
        clock_now[0] += config.lease_ttl + config.skew_grace + 1.0
        inherited = coordinator.claim("survivor")
        assert inherited is not None
        assert inherited.chunk_id == doomed.chunk_id
        print(
            f"\nRecovery: chunk {doomed.chunk_id[:12]} re-issued to "
            f"'survivor' on attempt {inherited.attempt} after "
            "'doomed-worker' went silent"
        )
    # ...and a surviving in-process worker drains what is left.
    stats = FleetWorker(
        recovery_store, config, worker_id="survivor"
    ).run()
    print(
        f"Survivor committed {stats.items_committed} item(s) "
        f"({stats.leases_lost} lease(s) lost along the way)"
    )

    # JSONL and in-memory stores have no concurrent-writer safety; the
    # fleet refuses them up front with the SQLite alternative named.
    try:
        run_fleet(sweep, tmp / "unsafe.jsonl", workers=2)
    except UnsafeFleetStoreError as error:
        print(f"\nRefused unsafe backend: {error}")


if __name__ == "__main__":
    main()
