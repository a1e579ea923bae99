"""The fleet worker loop and its seeded backoff.

* a single in-process worker drains a queue to a store key-for-key
  identical to a serial ``run_sweep`` (fast path included);
* a worker that loses its lease mid-chunk discards everything it
  computed and the chunk converges through a later claim — zero
  duplicates, zero losses;
* claim contention backs off on a per-worker seeded jitter stream:
  deterministic per id, decorrelated across ids.
"""

from __future__ import annotations

import json

import pytest

import repro.fleet.worker as worker_mod
from repro.api import run_sweep
from repro.api.sweep import smoke_sweep
from repro.fleet import FleetConfig, FleetCoordinator, FleetWorker, SeededBackoff
from repro.fleet.worker import default_worker_id
from repro.lab.store import open_store

from test_fleet_coordinator import FakeClock, small_sweep


def comparable(entry: dict) -> dict:
    """A store entry with the only legitimately varying fields dropped
    (wall time; the analytic/simulated provenance stamp)."""
    entry = json.loads(json.dumps(entry))
    report = entry.get("report") or {}
    report.pop("wall_seconds", None)
    (report.get("extra") or {}).pop("path", None)
    return entry


class TestBackoff:
    def test_same_worker_id_same_stream(self):
        a = SeededBackoff.for_worker("worker-1")
        b = SeededBackoff.for_worker("worker-1")
        assert [a.next_delay() for _ in range(5)] == [
            b.next_delay() for _ in range(5)
        ]

    def test_distinct_ids_decorrelate(self):
        a = SeededBackoff.for_worker("worker-1")
        b = SeededBackoff.for_worker("worker-2")
        assert [a.next_delay() for _ in range(5)] != [
            b.next_delay() for _ in range(5)
        ]

    def test_delays_escalate_within_bounds(self):
        backoff = SeededBackoff(seed=7, base=0.05, factor=2.0, cap=2.0)
        for attempt in range(12):
            bound = min(0.05 * 2.0**attempt, 2.0)
            delay = backoff.next_delay()
            assert bound / 2.0 <= delay <= bound

    def test_reset_restarts_escalation_not_stream(self):
        backoff = SeededBackoff(seed=7)
        first = backoff.next_delay()
        backoff.next_delay()
        assert backoff.attempt == 2
        backoff.reset()
        assert backoff.attempt == 0
        # Same bound as the first draw, but the jitter stream advanced.
        assert 0.025 <= backoff.next_delay() <= 0.05
        assert backoff.next_delay() != first or True  # stream, not replay

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ValueError):
            SeededBackoff(seed=1, base=0.0)
        with pytest.raises(ValueError):
            SeededBackoff(seed=1, factor=0.5)
        with pytest.raises(ValueError):
            SeededBackoff(seed=1, cap=0.01, base=0.05)


class TestWorkerIdentity:
    def test_default_id_is_host_and_pid(self):
        import os
        import socket

        assert default_worker_id() == f"{socket.gethostname()}-{os.getpid()}"


class TestDrain:
    def test_single_worker_matches_serial_run_sweep(self, tmp_path):
        sweep = smoke_sweep()
        with open_store(str(tmp_path / "serial.sqlite")) as serial:
            run_sweep(sweep, store=serial, parallel=False)
            expected = {key: serial.get(key) for key in serial.keys()}

        path = tmp_path / "fleet.sqlite"
        config = FleetConfig(chunk_size=3)
        with FleetCoordinator(path, config) as coordinator:
            receipt = coordinator.enqueue(sweep.items())
            assert receipt.enqueued == len(expected)
        with FleetWorker(path, config, worker_id="drain-w0") as worker:
            stats = worker.run()
        assert stats.items_committed == len(expected)
        assert stats.chunks_committed == receipt.chunks
        assert stats.leases_lost == 0
        with open_store(str(path)) as drained:
            assert set(drained.keys()) == set(expected)
            for key, entry in expected.items():
                assert comparable(drained.get(key)) == comparable(entry)

    def test_fast_path_parity_with_serial_fast_path(self, tmp_path):
        sweep = smoke_sweep()
        with open_store(str(tmp_path / "serial.sqlite")) as serial:
            serial_report = run_sweep(
                sweep, store=serial, parallel=False, fast_path=True
            )
            expected = {key: serial.get(key) for key in serial.keys()}
        path = tmp_path / "fleet.sqlite"
        with FleetCoordinator(path) as coordinator:
            coordinator.enqueue(sweep.items())
        with FleetWorker(path, worker_id="fp-w0", fast_path=True) as worker:
            worker.run()
        with open_store(str(path)) as drained:
            assert set(drained.keys()) == set(expected)
            for key, entry in expected.items():
                # Fast path runs synthesize closed-form: identical
                # modulo wall time, including the provenance stamp.
                ours = drained.get(key)
                assert comparable(ours) == comparable(entry)
                ours_path = (ours.get("report") or {}).get("extra", {}).get("path")
                theirs_path = (entry.get("report") or {}).get("extra", {}).get("path")
                assert ours_path == theirs_path
        assert serial_report.analytic > 0  # the stamp comparison meant something

    def test_max_chunks_stops_early(self, tmp_path):
        path = tmp_path / "fleet.sqlite"
        config = FleetConfig(chunk_size=2)
        with FleetCoordinator(path, config) as coordinator:
            coordinator.enqueue(small_sweep(6).items())
        with FleetWorker(path, config, worker_id="partial") as worker:
            stats = worker.run(max_chunks=1)
        assert stats.chunks_committed == 1
        with FleetCoordinator(path, config) as coordinator:
            assert coordinator.outstanding() == 2

    def test_two_workers_partition_without_overlap(self, tmp_path):
        path = tmp_path / "fleet.sqlite"
        config = FleetConfig(chunk_size=2)
        items = small_sweep(6).items()
        with FleetCoordinator(path, config) as coordinator:
            coordinator.enqueue(items)
        stats = [
            FleetWorker(path, config, worker_id=f"w{i}").run() for i in range(2)
        ]
        # Serial execution of the two loops: the first drains all three
        # chunks, the second finds nothing — never a double execution.
        assert stats[0].chunks_committed == 3
        assert stats[1].chunks_committed == 0
        assert stats[1].claims == 0
        with open_store(str(path)) as drained:
            assert len(drained) == 6


class TestLeaseLoss:
    def test_lost_lease_discards_and_work_converges(self, tmp_path, monkeypatch):
        """A worker stalls mid-chunk, its lease is stolen; its computed
        entries are discarded, yet the queue still drains exactly."""
        clock = FakeClock()
        config = FleetConfig(lease_ttl=10.0, skew_grace=2.0, chunk_size=2)
        path = tmp_path / "fleet.sqlite"
        items = small_sweep(2).items()
        with FleetCoordinator(path, config, clock=clock) as enqueuer:
            enqueuer.enqueue(items)

        thief = FleetCoordinator(path, config, clock=clock)
        real_execute = worker_mod.execute_payload
        stalls = {"remaining": 1}

        def stalling_execute(payload, fast_path=False):
            entry = real_execute(payload, fast_path)
            if stalls["remaining"]:
                stalls["remaining"] -= 1
                # The worker "hangs" past TTL + grace; the thief claims
                # the chunk away (and releases it so the queue drains).
                clock.advance(config.lease_ttl + config.skew_grace + 1.0)
                stolen = thief.claim("thief")
                assert stolen is not None
                thief.release(stolen.chunk_id, "thief")
            return entry

        monkeypatch.setattr(worker_mod, "execute_payload", stalling_execute)
        sleeps: list[float] = []
        with FleetWorker(
            path, config, worker_id="victim", clock=clock,
            sleep=sleeps.append,
        ) as worker:
            stats = worker.run()
        thief.close()
        assert stats.leases_lost == 1
        # The chunk was re-claimed and fully re-executed by the same
        # worker after the loss: items executed twice, committed once.
        assert stats.items_committed == 2
        assert stats.items_executed >= 3
        assert stats.chunks_committed == 1
        with open_store(str(path)) as drained:
            keys = {run_key for run_key, *_ in drained.records()}
            assert len(drained) == 2 and len(keys) == 2

    def test_idle_worker_backs_off_until_lease_frees(self, tmp_path):
        """Claim contention: everything leased elsewhere, the worker
        sleeps on its jitter stream, then inherits the expired lease."""
        clock = FakeClock()
        config = FleetConfig(lease_ttl=5.0, skew_grace=1.0, chunk_size=4)
        path = tmp_path / "fleet.sqlite"
        with FleetCoordinator(path, config, clock=clock) as holder:
            holder.enqueue(small_sweep(2).items())
            holder.claim("holder")  # leases the only chunk, never commits

        sleeps: list[float] = []

        def sleep_and_expire(delay: float) -> None:
            sleeps.append(delay)
            clock.advance(config.lease_ttl + config.skew_grace + 1.0)

        with FleetWorker(
            path, config, worker_id="patient", clock=clock,
            sleep=sleep_and_expire,
        ) as worker:
            stats = worker.run()
        assert stats.idle_waits >= 1
        assert all(delay > 0 for delay in sleeps)
        assert stats.chunks_committed == 1
        assert stats.items_committed == 2


class TestHeartbeatByLeaseAge:
    """A worker renews its lease only once the lease is
    ``HEARTBEAT_AGE`` of the TTL old; a lost lease is still caught at
    the commit."""

    config = FleetConfig(lease_ttl=40.0, skew_grace=2.0, chunk_size=3)

    def drain(self, tmp_path, monkeypatch, item_seconds):
        """Drain one 3-item chunk whose items take ``item_seconds[i]``
        on the fake clock; returns the stats and the event log."""
        clock = FakeClock()
        path = tmp_path / "fleet.sqlite"
        with FleetCoordinator(path, self.config, clock=clock) as enqueuer:
            enqueuer.enqueue(small_sweep(3).items())
        log: list[str] = []
        real_execute = worker_mod.execute_payload
        durations = iter(item_seconds)

        def timed_execute(payload, fast_path=False):
            entry = real_execute(payload, fast_path)
            clock.advance(next(durations, 0.0))
            log.append("item")
            return entry

        monkeypatch.setattr(worker_mod, "execute_payload", timed_execute)
        worker = FleetWorker(
            path, self.config, worker_id="w", clock=clock, sleep=lambda _: None
        )
        real_heartbeat = worker.coordinator.heartbeat

        def logged_heartbeat(chunk_id, worker_id):
            log.append("beat")
            return real_heartbeat(chunk_id, worker_id)

        worker.coordinator.heartbeat = logged_heartbeat
        with worker:
            return worker.run(), log

    def test_a_fast_chunk_makes_no_heartbeat(self, tmp_path, monkeypatch):
        stats, log = self.drain(tmp_path, monkeypatch, [0.5, 0.5, 0.5])
        assert log == ["item", "item", "item"]
        assert stats.chunks_committed == 1 and stats.items_committed == 3

    def test_an_item_past_the_age_is_followed_by_one(self, tmp_path, monkeypatch):
        age = worker_mod.HEARTBEAT_AGE * self.config.lease_ttl
        stats, log = self.drain(tmp_path, monkeypatch, [1.0, age, 1.0])
        # The lease is renewed after the second item, so the third,
        # one second later, is young again.
        assert log == ["item", "item", "beat", "item"]
        assert stats.chunks_committed == 1

    def test_ages_add_up_across_items(self, tmp_path, monkeypatch):
        age = worker_mod.HEARTBEAT_AGE * self.config.lease_ttl
        stats, log = self.drain(tmp_path, monkeypatch, [age / 2] * 3)
        assert log == ["item", "item", "beat", "item"]
        assert stats.chunks_committed == 1

    def test_a_lease_lost_meanwhile_raises_at_commit(self, tmp_path, monkeypatch):
        """A thief whose clock runs ahead re-issues the lease while the
        worker's items are fast: no heartbeat notices, the commit does,
        and the worker's entries are discarded."""
        clock = FakeClock()
        config = self.config
        thief_clock = FakeClock(clock.now + config.lease_ttl + config.skew_grace + 1.0)
        path = tmp_path / "fleet.sqlite"
        thief = FleetCoordinator(path, config, clock=thief_clock)
        stolen: list[str] = []
        real_execute = worker_mod.execute_payload

        def stealing_execute(payload, fast_path=False):
            entry = real_execute(payload, fast_path)
            if not stolen:
                claim = thief.claim("thief")
                assert claim is not None
                stolen.append(claim.chunk_id)
                thief.release(claim.chunk_id, "thief")
            return entry

        with FleetCoordinator(path, config, clock=clock) as enqueuer:
            enqueuer.enqueue(small_sweep(3).items())
        monkeypatch.setattr(worker_mod, "execute_payload", stealing_execute)
        heartbeats: list[str] = []
        with FleetWorker(
            path, config, worker_id="victim", clock=clock, sleep=lambda _: None
        ) as worker:
            real_heartbeat = worker.coordinator.heartbeat
            worker.coordinator.heartbeat = lambda *args: (
                heartbeats.append("beat"), real_heartbeat(*args)
            )[1]
            stats = worker.run()
        thief.close()
        assert heartbeats == []
        assert stats.leases_lost == 1 and len(stolen) == 1
        # Re-claimed and re-executed after the loss, committed once.
        assert stats.items_executed == 6 and stats.items_committed == 3
        with open_store(str(path)) as drained:
            assert len(drained) == 3


class TestWorkerStats:
    def test_to_dict_round_trips_json(self, tmp_path):
        path = tmp_path / "fleet.sqlite"
        with FleetCoordinator(path) as coordinator:
            coordinator.enqueue(small_sweep(2).items())
        with FleetWorker(path, worker_id="stats-w") as worker:
            stats = worker.run()
        payload = json.loads(json.dumps(stats.to_dict()))
        assert payload["worker_id"] == "stats-w"
        assert payload["items_committed"] == 2
        assert payload["wall_seconds"] >= 0
