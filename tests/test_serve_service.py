"""`SwapService` — admission, coalescing, warm cache, abort, metrics.

These tests drive the transport-agnostic core directly on a private
event loop (``asyncio.run``), exploiting one property for determinism:
the worker pool only makes progress at ``await`` points, so everything a
test does between two awaits observes a frozen service.
"""

import asyncio
import json

import pytest

import repro.serve.service as service_mod
from repro.api.engine import get_engine
from repro.api.scenario import Scenario
from repro.api.sweep import run_sweep
from repro.digraph.generators import triangle, two_leader_triangle
from repro.errors import AdmissionError, ReproError, ServeError, WireError
from repro.lab.store import SqliteStore
from repro.lab.workloads import Workload, build_sweep
from repro.serve.events import check_envelope, milestone_to_wire
from repro.serve.service import ServiceConfig, SwapService, TokenBucket
from repro.sim.milestones import MILESTONE_KINDS


def scenario(seed=7):
    return Scenario(topology=triangle(), seed=seed, name=f"serve-test:{seed}")


def no_rate(**overrides):
    return ServiceConfig(rate=0.0, **overrides)


async def started(config=None, store=None):
    service = SwapService(config or no_rate(), store=store)
    await service.start()
    return service


class TestTokenBucket:
    def test_burst_then_backoff(self):
        bucket = TokenBucket(rate=2.0, burst=2.0, now=0.0)
        assert bucket.try_take(0.0) == 0.0
        assert bucket.try_take(0.0) == 0.0
        wait = bucket.try_take(0.0)
        assert wait == pytest.approx(0.5)  # 1 token / 2 per second

    def test_refills_with_time(self):
        bucket = TokenBucket(rate=2.0, burst=2.0, now=0.0)
        bucket.try_take(0.0), bucket.try_take(0.0)
        assert bucket.try_take(1.0) == 0.0  # a second restored two tokens

    def test_burst_is_the_ceiling(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        bucket.try_take(100.0)
        assert bucket.tokens <= 2.0


class TestLifecycle:
    def test_submit_before_start_is_an_error(self):
        with pytest.raises(ServeError, match="not started"):
            SwapService(no_rate()).submit(scenario())

    def test_double_start_is_an_error(self):
        async def run():
            service = await started()
            with pytest.raises(ServeError, match="already started"):
                await service.start()
            await service.stop()

        asyncio.run(run())

    def test_submit_after_stop_is_an_error(self):
        async def run():
            service = await started()
            await service.stop()
            with pytest.raises(ServeError, match="not started"):
                service.submit(scenario())

        asyncio.run(run())


class TestSubmission:
    def test_cold_submit_settles_and_stores(self):
        async def run():
            service = await started()
            result = service.submit(scenario())
            assert result.status == "accepted"
            job = await service.wait(result.key, timeout=30)
            assert job.status == "settled"
            assert job.entry["ok"] and "report" in job.entry
            # Recorded in run_sweep's entry format, flushed to the store.
            assert service.store.get(result.key)["ok"] is True
            assert service._counters["executed"] == 1
            await service.stop()

        asyncio.run(run())

    def test_unknown_engine_fails_fast(self):
        async def run():
            service = await started()
            with pytest.raises(ReproError):
                service.submit(scenario(), engine="warp-drive")
            await service.stop()

        asyncio.run(run())

    def test_malformed_scenario_is_a_wire_error(self):
        async def run():
            service = await started()
            with pytest.raises((WireError, ReproError)):
                service.submit({"nonsense": True})
            await service.stop()

        asyncio.run(run())


class TestCoalescing:
    def test_identical_inflight_submissions_share_one_job(self):
        async def run():
            service = await started()
            # No await between these: the first job cannot have run yet.
            first = service.submit(scenario())
            second = service.submit(scenario())
            assert first.status == "accepted"
            assert second.status == "coalesced"
            assert second.job is first.job
            assert first.job.coalesced == 1
            await service.wait(first.key, timeout=30)
            # One execution settled both submissions.
            assert service._counters["executed"] == 1
            assert service._counters["coalesced"] == 1
            await service.stop()

        asyncio.run(run())


class TestWarmCache:
    def test_resubmission_is_served_from_the_store(self):
        async def run():
            service = await started()
            key = service.submit(scenario()).key
            await service.wait(key, timeout=30)
            result = service.submit(scenario())
            assert result.status == "cached"
            assert result.job.terminal and result.job.entry["ok"]
            assert service._counters["cache_hits"] == 1
            assert service._counters["executed"] == 1  # still just the one
            await service.stop()

        asyncio.run(run())

    def test_store_warmed_by_another_service_instance(self):
        async def run():
            first = await started()
            key = first.submit(scenario()).key
            await first.wait(key, timeout=30)
            await first.stop()

            # A fresh daemon over the same store: zero engines executed.
            second = await started(store=first.store)
            result = second.submit(scenario())
            assert result.status == "cached"
            assert result.job.cached
            assert result.job.entry["report"] == first.store.get(key)["report"]
            assert second._counters["executed"] == 0
            await second.stop()

        asyncio.run(run())

    def test_cached_job_streams_a_terminal_event(self):
        async def run():
            service = await started()
            key = service.submit(scenario()).key
            await service.wait(key, timeout=30)
            await service.stop()

            warm = await started(store=service.store)
            warm.submit(scenario())
            events = [event async for event in warm.subscribe(key)]
            assert [e["event"] for e in events] == ["accepted", "settled"]
            assert events[-1]["data"]["cached"] is True
            await warm.stop()

        asyncio.run(run())


class TestAdmissionControl:
    def test_rate_limit_yields_retry_after(self):
        async def run():
            service = await started(ServiceConfig(rate=1.0, burst=1.0))
            service.submit(scenario(1), client="alice")
            with pytest.raises(AdmissionError) as info:
                service.submit(scenario(2), client="alice")
            assert info.value.reason == "rate-limited"
            assert info.value.retry_after > 0
            assert service._counters["rejected_rate_limited"] == 1
            await service.stop()

        asyncio.run(run())

    def test_rate_limits_are_per_client(self):
        async def run():
            service = await started(ServiceConfig(rate=1.0, burst=1.0))
            service.submit(scenario(1), client="alice")
            # Bob has his own bucket; Alice's spend doesn't touch it.
            assert service.submit(scenario(2), client="bob").status == "accepted"
            await service.stop()

        asyncio.run(run())

    def test_full_queue_rejects_with_backpressure(self):
        async def run():
            service = await started(no_rate(max_pending=1, max_concurrency=1))
            service.submit(scenario(1))
            with pytest.raises(AdmissionError) as info:
                service.submit(scenario(2))
            assert info.value.reason == "queue-full"
            assert info.value.retry_after >= 0.5
            assert service._counters["rejected_queue_full"] == 1
            await service.stop()

        asyncio.run(run())


class TestAbort:
    def test_abort_while_queued_never_touches_an_engine(self):
        async def run():
            service = await started()
            key = service.submit(scenario()).key
            assert service.abort(key, reason="changed my mind") is True
            job = await service.wait(key, timeout=30)
            assert job.status == "aborted"
            assert service._counters["executed"] == 0
            # Aborted runs are never stored: no cache poisoning.
            assert service.store.get(key) is None
            await service.stop()

        asyncio.run(run())

    def test_deadline_aborts_the_run(self):
        async def run():
            service = await started(no_rate(max_run_seconds=0.0))
            key = service.submit(scenario()).key
            job = await service.wait(key, timeout=30)
            assert job.status == "aborted"
            assert job.entry["aborted"] == "deadline exceeded"
            # The partial report is observable but flagged, and unstored.
            assert job.entry["report"]["extra"]["aborted"]["reason"] == (
                "deadline exceeded"
            )
            assert service.store.get(key) is None
            await service.stop()

        asyncio.run(run())

    def test_stop_aborts_running_and_queued_jobs(self):
        """Stopping the service ends every live job's stream."""
        (_, long_run), = build_sweep(
            [Workload("clique", {"n": 10}, mixes=("phase-crash",), timings=("stragglers",))],
            name="serve-stop",
        ).items()

        async def follow(service, key):
            return [event async for event in service.subscribe(key)]

        async def first_milestone(job):
            while not any(event["event"] == "milestone" for event in job.events):
                await asyncio.sleep(0)

        async def run():
            service = await started(no_rate(max_concurrency=1))
            running = service.submit(long_run).key
            queued = service.submit(scenario()).key
            followers = [
                asyncio.ensure_future(follow(service, key)) for key in (running, queued)
            ]
            await asyncio.wait_for(first_milestone(service.job(running)), timeout=30)
            assert service.job(running).status == "running"
            assert service.job(queued).status == "queued"
            await asyncio.wait_for(service.stop(), timeout=30)
            streams = await asyncio.wait_for(asyncio.gather(*followers), timeout=10)
            assert [stream[-1]["event"] for stream in streams] == ["aborted", "aborted"]
            assert service.job(running).entry["aborted"] == "service shutdown"
            assert service._counters["aborted"] == 2

        asyncio.run(run())

    def test_abort_of_a_terminal_job_is_a_noop(self):
        async def run():
            service = await started()
            key = service.submit(scenario()).key
            await service.wait(key, timeout=30)
            assert service.abort(key) is False
            await service.stop()

        asyncio.run(run())

    def test_abort_of_an_unknown_job_raises(self):
        async def run():
            service = await started()
            with pytest.raises(ServeError, match="no such job"):
                service.abort("feedface")
            await service.stop()

        asyncio.run(run())


class TestUnrecordedOutcomes:
    """No cache answer for an outcome the store never recorded."""

    def test_resubmission_after_a_deadline_abort_runs_afresh(self):
        async def run():
            service = await started(no_rate(max_run_seconds=0.0))
            key = service.submit(scenario()).key
            assert (await service.wait(key, timeout=30)).status == "aborted"
            service.config.max_run_seconds = None
            again = service.submit(scenario())
            assert again.status == "accepted"
            job = await service.wait(key, timeout=30)
            assert job is again.job and job.status == "settled"
            assert service._counters["cache_hits"] == 0
            assert service.store.get(key)["ok"] is True
            await service.stop()

        asyncio.run(run())

    def test_resubmission_after_a_queued_abort_runs_afresh(self):
        async def run():
            service = await started()
            key = service.submit(scenario()).key
            service.abort(key)
            assert (await service.wait(key, timeout=30)).status == "aborted"
            again = service.submit(scenario())
            assert again.status == "accepted"
            assert (await service.wait(key, timeout=30)).status == "settled"
            assert service._counters["cache_hits"] == 0
            await service.stop()

        asyncio.run(run())

    def test_engine_bug_fails_the_job_but_is_not_stored(self, monkeypatch):
        engine_class = type(get_engine("herlihy"))

        def bug(self, scenario):
            raise RuntimeError("engine bug")

        async def run():
            service = await started(no_rate(max_concurrency=1))
            with monkeypatch.context() as patch:
                patch.setattr(engine_class, "prepare", bug)
                key = service.submit(scenario()).key
                job = await service.wait(key, timeout=30)
            assert job.status == "failed"
            assert job.entry["error_type"] == "RuntimeError"
            assert service.store.get(key) is None
            # The one worker slot survived, and the key runs afresh.
            again = service.submit(scenario())
            assert again.status == "accepted"
            assert (await service.wait(key, timeout=30)).status == "settled"
            assert service._counters["cache_hits"] == 0
            await service.stop()

        asyncio.run(run())

    def test_resubmitted_refusal_is_served_from_the_store(self):
        refused = Scenario(topology=two_leader_triangle(), seed=7, name="serve-test:refused")

        async def run():
            service = await started()
            key = service.submit(refused, engine="single-leader").key
            assert (await service.wait(key, timeout=30)).status == "failed"
            again = service.submit(refused, engine="single-leader")
            assert again.status == "cached" and not again.job.entry["ok"]
            assert again.job.entry == service.store.get(key)
            assert service._counters["executed"] == 1
            await service.stop()

        asyncio.run(run())


class TestEventStream:
    def test_settled_stream_is_the_full_lifecycle(self):
        async def run():
            service = await started()
            key = service.submit(scenario()).key
            await service.wait(key, timeout=30)
            events = [event async for event in service.subscribe(key)]
            kinds = [event["event"] for event in events]
            assert kinds[0] == "accepted"
            assert kinds[1] == "started"
            assert kinds[-1] == "settled"
            assert "milestone" in kinds
            # Every envelope is wire-valid; milestone kinds on-vocabulary.
            for event in events:
                checked = check_envelope(event)
                if checked["event"] == "milestone":
                    assert checked["data"]["kind"] in MILESTONE_KINDS
            # Sequence numbers are dense from zero.
            assert [event["seq"] for event in events] == list(range(len(events)))
            # The milestones are the session's own, in wire form.
            session = get_engine("herlihy").open(scenario())
            assert [e["data"] for e in events if e["event"] == "milestone"] == [
                milestone_to_wire(m) for m in session.run_to_completion().milestones
            ]
            await service.stop()

        asyncio.run(run())

    def test_live_subscriber_follows_the_run(self):
        async def run():
            service = await started()
            key = service.submit(scenario()).key

            async def collect():
                return [event async for event in service.subscribe(key)]

            collector = asyncio.ensure_future(collect())
            await service.wait(key, timeout=30)
            events = await asyncio.wait_for(collector, timeout=30)
            assert events[-1]["event"] == "settled"
            await service.stop()

        asyncio.run(run())

    def test_replay_from_seq_skips_the_prefix(self):
        async def run():
            service = await started()
            key = service.submit(scenario()).key
            await service.wait(key, timeout=30)
            full = [event async for event in service.subscribe(key)]
            tail = [event async for event in service.subscribe(key, from_seq=2)]
            assert tail == full[2:]
            await service.stop()

        asyncio.run(run())

    def test_event_cap_drops_milestones_never_terminals(self, monkeypatch):
        monkeypatch.setattr(service_mod, "MAX_EVENTS_PER_JOB", 2)

        async def run():
            service = await started()
            key = service.submit(scenario()).key
            job = await service.wait(key, timeout=30)
            kinds = [event["event"] for event in job.events]
            assert kinds == ["accepted", "started", "settled"]
            assert job.dropped_events > 0
            assert job.state()["dropped_events"] == job.dropped_events
            await service.stop()

        asyncio.run(run())


class TestAnalyticTier:
    """The third admission tier: closed-form settlement, no worker slot."""

    def test_covered_submission_settles_without_executing(self):
        async def run():
            service = await started(no_rate(fast_path=True))
            result = service.submit(scenario())
            # Settled synchronously: no await has happened yet.
            assert result.status == "analytic"
            assert result.job.status == "settled"
            assert result.job.entry["ok"]
            report = result.job.entry["report"]
            assert report["extra"]["path"] == "analytic"
            assert service.store.get(result.key)["ok"] is True
            assert service._counters["analytic"] == 1
            assert service._counters["executed"] == 0
            events = [event async for event in service.subscribe(result.key)]
            assert [e["event"] for e in events] == ["accepted", "settled"]
            assert events[-1]["data"]["analytic"] is True
            assert events[-1]["data"]["cached"] is False
            assert service.status()["analytic"] == 1
            await service.stop()

        asyncio.run(run())

    def test_uncovered_submission_falls_through_to_the_queue(self):
        async def run():
            service = await started(no_rate(fast_path=True))
            jittered = Scenario(topology=triangle(), seed=7, timing="jittered")
            result = service.submit(jittered)
            assert result.status == "accepted"
            await service.wait(result.key, timeout=30)
            assert service._counters["analytic"] == 0
            assert service._counters["executed"] == 1
            await service.stop()

        asyncio.run(run())

    def test_resubmission_after_analytic_is_a_cache_hit(self):
        async def run():
            service = await started(no_rate(fast_path=True))
            first = service.submit(scenario())
            assert first.status == "analytic"
            second = service.submit(scenario())
            assert second.status == "cached"
            assert service._counters["cache_hits"] == 1
            await service.stop()

        asyncio.run(run())

    def test_fast_path_is_opt_in(self):
        async def run():
            service = await started()  # default config: no fast path
            result = service.submit(scenario())
            assert result.status == "accepted"
            await service.wait(result.key, timeout=30)
            assert service._counters["executed"] == 1
            await service.stop()

        asyncio.run(run())


class TestEventData:
    """The exact ``data`` of every non-milestone event, per tier: keys,
    values and key order (compared as ``json.dumps`` text)."""

    REFUSED = Scenario(topology=two_leader_triangle(), seed=7, name="serve-test:refused")

    @staticmethod
    def _events(config, engine, scenario, store=None):
        async def run():
            service = await started(config, store=store)
            result = service.submit(scenario, engine=engine)
            await service.wait(result.key, timeout=30)
            events = [
                (e["event"], e.get("data"))
                for e in service.job(result.key).events
                if e["event"] != "milestone"
            ]
            await service.stop()
            return result.status, events, result.job.entry

        return asyncio.run(run())

    @staticmethod
    def _warm(engine, scenario):
        store = SqliteStore(":memory:")
        run_sweep([(engine, scenario)], parallel=False, store=store)
        return store

    def test_cached_success(self):
        store = self._warm("herlihy", scenario())
        status, events, entry = self._events(no_rate(), "herlihy", scenario(), store)
        assert status == "cached"
        assert json.dumps(events) == json.dumps([
            ("accepted", {"engine": "herlihy", "cached": True}),
            ("settled", {"cached": True, "report": entry["report"]}),
        ])

    def test_cached_failure(self):
        store = self._warm("single-leader", self.REFUSED)
        status, events, entry = self._events(
            no_rate(), "single-leader", self.REFUSED, store
        )
        assert status == "cached" and not entry["ok"]
        assert json.dumps(events) == json.dumps([
            ("accepted", {"engine": "single-leader", "cached": True}),
            ("failed", {
                "cached": True,
                "error_type": entry["error_type"],
                "message": entry["message"],
            }),
        ])

    def test_analytic(self):
        status, events, entry = self._events(
            no_rate(fast_path=True), "herlihy", scenario()
        )
        assert status == "analytic"
        assert json.dumps(events) == json.dumps([
            ("accepted", {"engine": "herlihy", "analytic": True}),
            ("settled", {"cached": False, "analytic": True, "report": entry["report"]}),
        ])

    @pytest.mark.parametrize("fast_path", [False, True])
    def test_simulated_settled(self, fast_path):
        jittered = Scenario(topology=triangle(), seed=7, timing="jittered")
        status, events, entry = self._events(
            no_rate(fast_path=fast_path), "herlihy", jittered
        )
        assert status == "accepted"
        assert entry["report"]["extra"] == ({"path": "simulated"} if fast_path else {})
        assert json.dumps(events) == json.dumps([
            ("accepted", {"engine": "herlihy", "client": "anonymous"}),
            ("started", {"engine": "herlihy"}),
            ("settled", {"cached": False, "report": entry["report"]}),
        ])

    def test_simulated_failed(self):
        status, events, entry = self._events(no_rate(), "single-leader", self.REFUSED)
        assert status == "accepted"
        assert list(entry) == ["ok", "engine", "scenario", "error_type", "message"]
        assert json.dumps(events) == json.dumps([
            ("accepted", {"engine": "single-leader", "client": "anonymous"}),
            ("started", {"engine": "single-leader"}),
            ("failed", {
                "cached": False,
                "error_type": entry["error_type"],
                "message": entry["message"],
            }),
        ])


class TestMetrics:
    def test_status_document(self):
        async def run():
            service = await started()
            key = service.submit(scenario()).key
            await service.wait(key, timeout=30)
            service.submit(scenario())  # warm hit
            doc = service.status()
            assert doc["submitted"] == 2
            assert doc["accepted"] == 1
            assert doc["cache_hits"] == 1
            assert doc["cache_hit_rate"] == pytest.approx(0.5)
            assert doc["executed"] == 1
            assert doc["queue_depth"] == 0
            assert doc["store_entries"] == 1
            assert doc["latency"]["count"] == 1
            assert doc["latency"]["p99_ms"] > 0
            assert sum(doc["milestones"].values()) > 0
            assert set(doc["milestones"]) <= set(MILESTONE_KINDS)
            await service.stop()

        asyncio.run(run())

    def test_wait_with_a_spent_deadline_returns_immediately(self):
        async def run():
            service = await started()
            key = service.submit(scenario()).key
            job = await service.wait(key, timeout=0)
            assert job.status == "queued"  # no await elapsed: still frozen
            await service.wait(key, timeout=30)
            await service.stop()

        asyncio.run(run())
