"""`SwapService`: the daemon's transport-agnostic core.

The service turns the execution-session API into a long-lived,
admission-controlled server: submissions arrive as ``(engine, scenario)``
pairs, pass a per-client token bucket and a bounded admission queue, and
are multiplexed over worker slots that each drive one
:class:`~repro.api.execution.Execution` milestone by milestone —
milestones are forwarded to subscribers *as they fire*, not after
quiescence.

Everything observable about a job is an ordered stream of envelope
events (:mod:`repro.serve.events`): ``accepted`` → ``started`` →
``milestone``* → ``settled`` | ``failed`` | ``aborted``.  Subscribers
replay a job's stream from any sequence number and then follow it live,
which is what both the long-poll and WebSocket transports in
:mod:`repro.serve.http` are built on.

The content-addressed run store doubles as the warm cache: submissions
are keyed by :func:`repro.api.sweep.run_key`, a seen scenario returns
the stored entry instantly (zero engines executed), and duplicate
in-flight submissions coalesce onto the single live execution.  With
``ServiceConfig.fast_path`` on, a *fully-covered* scenario is settled
on the submit path itself by
:func:`~repro.analysis.engine.synthesize_run`, the closed-form half of
the one resolution policy every front end shares — a third tier
between the warm hit and the cold run that never occupies an execution
slot.  Settled and failed runs are recorded through
:func:`~repro.api.sweep.store_entry` and
:func:`~repro.api.sweep.failure_entry`, the ``run_sweep`` entry format,
so a store warmed by the daemon warms ``lab`` sweeps and vice versa.
Aborted runs are *never* recorded — a partial report must not poison
the cache — and neither is a job failed by an exception that is not a
:class:`~repro.errors.ReproError` (an engine bug, which
``execute_payload`` lets escape); a later submission of either key runs
afresh.

Concurrency model: the service lives on one asyncio event loop and
there is no drive thread.  Each worker slot is a task on that loop that
drives its execution in cooperative slices: one
:meth:`~repro.api.execution.Execution.advance` fires events up to the
next milestone batch (or a bounded milestone-free stretch), the worker
publishes that batch, then yields to the loop with ``sleep(0)``.  Slices
of concurrent jobs interleave with submissions, subscribers and HTTP
requests, and the wall deadline and abort requests are checked between
slices.  Store access, streams and counters have one owner: the loop.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Mapping

from repro.analysis.engine import PATH_SIMULATED, synthesize_run
from repro.api.engine import get_engine
from repro.api.execution import Execution
from repro.api.scenario import Scenario
from repro.api.sweep import failure_entry, run_key, store_entry
from repro.errors import AdmissionError, ReproError, ServeError, WireError
from repro.lab.store import SqliteStore
from repro.serve.events import TERMINAL_EVENTS, WIRE_SCHEMA, envelope, milestone_to_wire

#: Job lifecycle states; the last three are terminal.
JOB_STATES = ("queued", "running", "settled", "failed", "aborted")
TERMINAL_STATES = frozenset({"settled", "failed", "aborted"})

#: Milestone events retained per job; beyond it they are dropped
#: (counted in ``dropped_events``) — terminal events always land.
MAX_EVENTS_PER_JOB = 4096
#: Terminal jobs kept for late subscribers before eviction.
MAX_JOBS_RETAINED = 1024
#: Settled-latency samples kept for the p50/p99 metrics.
LATENCY_WINDOW = 4096


@dataclass
class ServiceConfig:
    """Tunables for one :class:`SwapService` instance."""

    max_pending: int = 64
    """Admission-queue depth; a submission beyond it gets a 429."""
    max_concurrency: int = 4
    """Execution sessions driven simultaneously (worker slots)."""
    rate: float = 50.0
    """Per-client token-bucket refill, submissions/second (<= 0 disables)."""
    burst: float = 100.0
    """Per-client bucket capacity (the allowed submission burst)."""
    max_run_seconds: float | None = 30.0
    """Wall-clock eviction deadline per job; ``None`` disables."""
    default_engine: str = "herlihy"
    fast_path: bool = False
    """Answer fully-covered submissions in closed form
    (:func:`~repro.analysis.engine.synthesize_run`) without occupying
    an execution slot — a third tier between the warm-cache hit and the
    cold run.  The synthesized report is byte-identical to what the
    simulator would produce and is stored under the same run key, so
    the cache stays coherent across both paths.  Runs that still
    simulate are stamped ``extra["path"] = "simulated"``, as sweeps and
    fleet workers stamp theirs under the same flag."""

    def __post_init__(self) -> None:
        # Queue(maxsize=0) is unbounded and zero slots never drain it:
        # either would switch admission control off, not tighten it.
        run_seconds = self.max_run_seconds
        for field, bound, bad in (
            ("max_pending", ">= 1", self.max_pending < 1),
            ("max_concurrency", ">= 1", self.max_concurrency < 1),
            ("burst", ">= 1 when rate > 0", self.rate > 0 and self.burst < 1),
            ("max_run_seconds", "None or >= 0",
             run_seconds is not None and run_seconds < 0),
        ):
            if bad:
                value = getattr(self, field)
                raise ServeError(f"{field} must be {bound}, got {value}")


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/sec, ``burst`` capacity."""

    def __init__(self, rate: float, burst: float, now: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.stamp = now

    def try_take(self, now: float) -> float:
        """Take one token; returns 0.0 on success, else seconds until
        the next token accrues."""
        self.tokens = min(self.burst, self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


@dataclass
class Job:
    """One submitted run and its observable event stream."""

    key: str
    engine: str
    scenario: Scenario
    client: str
    submitted_at: float
    status: str = "queued"
    cached: bool = False
    events: list[dict] = field(default_factory=list)
    entry: dict | None = None
    started_at: float | None = None
    settled_at: float | None = None
    subscribers: int = 0
    coalesced: int = 0
    dropped_events: int = 0
    abort_requested: bool = False
    abort_reason: str = ""
    waker: asyncio.Event = field(default_factory=asyncio.Event)
    finished: asyncio.Event = field(default_factory=asyncio.Event)
    """Set once, when the terminal event is published."""

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    def state(self) -> dict[str, Any]:
        """The job's status document (what ``GET /v1/runs/<key>`` serves)."""
        doc: dict[str, Any] = {
            "key": self.key,
            "engine": self.engine,
            "scenario": self.scenario.label(),
            "status": self.status,
            "cached": self.cached,
            "events": len(self.events),
            "coalesced": self.coalesced,
        }
        if self.dropped_events:
            doc["dropped_events"] = self.dropped_events
        if self.entry is not None:
            if self.entry.get("ok"):
                doc["report"] = self.entry["report"]
            elif self.entry.get("aborted"):
                doc["aborted"] = self.entry["aborted"]
                if "report" in self.entry:
                    doc["report"] = self.entry["report"]
            else:
                doc["error_type"] = self.entry.get("error_type")
                doc["message"] = self.entry.get("message")
        return doc


@dataclass(frozen=True)
class SubmitResult:
    """What :meth:`SwapService.submit` answers.

    ``status`` is ``"cached"`` (served instantly from the store, zero
    engines executed), ``"coalesced"`` (an identical submission is
    already queued or running — the caller shares its job),
    ``"analytic"`` (fully covered: settled from the closed-form
    synthesizer without an execution slot), or ``"accepted"`` (freshly
    admitted).
    """

    status: str
    key: str
    job: Job
    queue_depth: int = 0


class SwapService:
    """The admission-controlled, multiplexing execution service."""

    def __init__(
        self, config: ServiceConfig | None = None, store: SqliteStore | None = None
    ) -> None:
        self.config = config or ServiceConfig()
        self.store = store if store is not None else SqliteStore(":memory:")
        self._jobs: dict[str, Job] = {}
        self._terminal_order: deque[str] = deque()
        self._buckets: dict[str, TokenBucket] = {}
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._milestone_counts: dict[str, int] = {}
        self._queue: asyncio.Queue[Job] | None = None
        self._workers: list[asyncio.Task] = []
        self._started_at: float | None = None
        self._counters = {
            "submitted": 0,
            "accepted": 0,
            "coalesced": 0,
            "cache_hits": 0,
            "analytic": 0,
            "rejected_queue_full": 0,
            "rejected_rate_limited": 0,
            "executed": 0,
            "settled": 0,
            "failed": 0,
            "aborted": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bring up the worker slots; must run on the serving loop."""
        if self._queue is not None:
            raise ServeError("service already started")
        self._queue = asyncio.Queue(maxsize=self.config.max_pending)
        self._workers = [
            asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
            for i in range(self.config.max_concurrency)
        ]
        self._started_at = time.monotonic()

    async def stop(self) -> None:
        """Evict every live job, stop the workers, flush the store.

        Every job that is not yet terminal ends with ``aborted``: queued
        jobs here, running ones at the start of their next slice, so
        every follower's stream ends.
        """
        queue = self._queue
        if queue is None:
            return
        for job in self._jobs.values():
            if not job.terminal:
                job.abort_requested = True
                job.abort_reason = job.abort_reason or "service shutdown"
        while not queue.empty():
            self._abort_queued(queue.get_nowait())
            queue.task_done()
        # Each taken job is marked done when its worker finishes it.
        await queue.join()
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        self._queue = None
        self.store.flush()

    # -- admission -----------------------------------------------------------

    def submit(
        self,
        scenario: Scenario | Mapping[str, Any],
        engine: str | None = None,
        client: str = "anonymous",
    ) -> SubmitResult:
        """Admit one scenario; returns how it was disposed of.

        Raises :class:`~repro.errors.AdmissionError` on rate limiting or
        a full queue, and other :class:`~repro.errors.ReproError`
        subclasses (unknown engine, malformed scenario) for bad input.
        """
        if self._queue is None:
            raise ServeError("service is not started")
        self._counters["submitted"] += 1
        engine_name = engine or self.config.default_engine
        get_engine(engine_name)  # fail fast on typos
        if not isinstance(scenario, Scenario):
            try:
                scenario = Scenario.from_dict(dict(scenario))
            except ReproError:
                raise
            except Exception as error:
                raise WireError(f"malformed scenario payload: {error}") from error

        now = time.monotonic()
        if self.config.rate > 0:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = self._buckets[client] = TokenBucket(
                    self.config.rate, self.config.burst, now
                )
            wait = bucket.try_take(now)
            if wait > 0.0:
                self._counters["rejected_rate_limited"] += 1
                raise AdmissionError("rate-limited", wait, f"client {client!r}")

        key = run_key(engine_name, scenario)

        # In-flight (or retained) job first: coalesce onto it.
        live = self._jobs.get(key)
        if live is not None and not live.terminal:
            live.coalesced += 1
            self._counters["coalesced"] += 1
            return SubmitResult("coalesced", key, live, self._queue.qsize())
        if live is not None and live.status == "settled":
            # A retained settled job is the cache in memory: every
            # settled entry was recorded.  A failed or aborted one falls
            # through to the store, which holds a failure only if it was
            # recorded and never holds an aborted run.
            self._counters["cache_hits"] += 1
            return SubmitResult("cached", key, live, self._queue.qsize())

        # Warm cache: a stored entry settles the submission instantly.
        stored = self.store.get(key)
        if stored is not None:
            self._counters["cache_hits"] += 1
            job = self._answered_job(
                key, engine_name, scenario, client, now, stored, "cached"
            )
            return SubmitResult("cached", key, job, self._queue.qsize())

        # Analytic tier: a fully-covered scenario is answered from the
        # closed-form synthesizer on the submit path itself — no queue
        # slot, no worker, no engine.  The entry lands in the store, so
        # every later submission of this key is a plain cache hit.
        if self.config.fast_path:
            report = synthesize_run(engine_name, scenario)
            if report is not None:
                entry = store_entry(report)
                self._record(key, entry)
                job = self._answered_job(
                    key, engine_name, scenario, client, now, entry, "analytic"
                )
                self._counters["analytic"] += 1
                return SubmitResult("analytic", key, job, self._queue.qsize())

        if self._queue.full():
            self._counters["rejected_queue_full"] += 1
            retry = self._retry_after()
            raise AdmissionError(
                "queue-full", retry, f"admission queue holds {self._queue.qsize()}"
            )

        job = Job(
            key=key,
            engine=engine_name,
            scenario=scenario,
            client=client,
            submitted_at=now,
        )
        self._jobs[key] = job
        self._publish(job, "accepted", {"engine": engine_name, "client": client})
        self._queue.put_nowait(job)
        self._counters["accepted"] += 1
        return SubmitResult("accepted", key, job, self._queue.qsize())

    def _answered_job(
        self,
        key: str,
        engine: str,
        scenario: Scenario,
        client: str,
        now: float,
        entry: dict,
        tier: str,
    ) -> Job:
        """Materialise a submission answered on the submit path — a warm
        hit (``tier="cached"``) or a closed-form report
        (``tier="analytic"``, already recorded) — as an already-terminal
        job, so it exposes the same subscription surface as a fresh run."""
        cached = tier == "cached"
        job = Job(
            key=key,
            engine=engine,
            scenario=scenario,
            client=client,
            submitted_at=now,
            cached=cached,
        )
        self._publish(job, "accepted", {"engine": engine, tier: True})
        job.settled_at = now
        self._settle(
            job, entry, {"cached": True} if cached else {"cached": False, "analytic": True}
        )
        self._remember(job)
        return job

    def _settle(self, job: Job, entry: dict, data: dict[str, Any]) -> None:
        """Attach a recorded entry and publish its terminal event:
        ``settled`` with the report or ``failed`` with the error, after
        the tier's own ``data`` keys."""
        job.entry = entry
        if entry["ok"]:
            job.status = "settled"
            self._publish(job, "settled", {**data, "report": entry["report"]})
        else:
            job.status = "failed"
            error = {"error_type": entry.get("error_type"), "message": entry.get("message")}
            self._publish(job, "failed", {**data, **error})

    def _retry_after(self) -> float:
        """Advisory back-off when the queue is full: the mean observed
        service latency per queued job, floored at half a second."""
        if self._latencies:
            mean = sum(self._latencies) / len(self._latencies)
        else:
            mean = 0.5
        return max(0.5, mean)

    def _remember(self, job: Job) -> None:
        """Track a terminal job, evicting the oldest beyond the cap."""
        self._jobs[job.key] = job
        self._terminal_order.append(job.key)
        while len(self._terminal_order) > MAX_JOBS_RETAINED:
            victim = self._terminal_order.popleft()
            held = self._jobs.get(victim)
            if held is not None and held.terminal and held.subscribers == 0:
                del self._jobs[victim]

    # -- the execution pool --------------------------------------------------

    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            job = await self._queue.get()
            try:
                await self._run_job(job)
            finally:
                self._queue.task_done()

    def _abort_queued(self, job: Job) -> None:
        """End a job that was evicted before it reached an engine."""
        job.status = "aborted"
        job.settled_at = time.monotonic()
        self._counters["aborted"] += 1
        self._publish(job, "aborted", {"reason": job.abort_reason or "evicted"})
        self._remember(job)

    async def _run_job(self, job: Job) -> None:
        if job.abort_requested:
            self._abort_queued(job)
            return
        job.status = "running"
        job.started_at = time.monotonic()
        self._publish(job, "started", {"engine": job.engine})
        try:
            execution = get_engine(job.engine).open(job.scenario)
            deadline = (
                None
                if self.config.max_run_seconds is None
                else time.monotonic() + self.config.max_run_seconds
            )
            while True:
                wires, ended = self._drive(job, execution, deadline)
                for wire in wires:
                    self._publish_milestone(job, wire)
                if ended is not None:
                    entry, outcome = ended
                    break
                await asyncio.sleep(0)
            recorded = True
        except ReproError as error:  # refused by open(), as run_sweep records it
            entry = failure_entry(job.engine, job.scenario.to_dict(), error)
            outcome, recorded = "failed", True
        except Exception as error:  # engine bug: fail the job, keep the worker
            entry = failure_entry(job.engine, job.scenario.to_dict(), error)
            outcome, recorded = "failed", False
        job.settled_at = time.monotonic()
        self._counters[outcome] += 1
        if outcome == "aborted":
            # Never stored: a partial report would poison the cache.
            job.entry, job.status = entry, outcome
            self._publish(job, "aborted", {"reason": job.abort_reason or "evicted"})
        else:
            # Failures are cacheable knowledge, exactly as in run_sweep;
            # a bug's exception is not, as execute_payload lets it escape.
            self._counters["executed"] += 1
            if outcome == "settled":
                self._latencies.append(job.settled_at - job.submitted_at)
            if recorded:
                self._record(job.key, entry)
            self._settle(job, entry, {"cached": False})
        self._remember(job)

    def _record(self, key: str, entry: dict) -> None:
        """Store a fresh entry and make it crash-durable (the per-chunk
        discipline ``run_sweep`` uses, applied per job)."""
        self.store.put(key, entry)
        self.store.flush()

    def _drive(
        self, job: Job, execution: Execution, deadline: float | None
    ) -> tuple[list[dict], tuple[dict, str] | None]:
        """Advance ``job``'s execution by one slice; publishes nothing.

        Returns the slice's milestones in wire form, plus the
        store-format entry and the job outcome once the run has ended
        (settled, failed, or aborted by request or by ``deadline``).
        """
        if job.abort_requested or (
            deadline is not None and time.monotonic() > deadline
        ):
            reason = job.abort_reason or "deadline exceeded"
            job.abort_reason = reason
            report = execution.abort(reason)
            # The partial report is observable on the job but is never
            # stored: ok=False keeps it out of report paths.
            return [], (
                {"ok": False, "aborted": reason, "report": report.to_dict()},
                "aborted",
            )
        try:
            wires = [milestone_to_wire(milestone) for milestone in execution.advance()]
            if not execution.quiesced:
                return wires, None
            report = execution.run_to_completion()
        except ReproError as error:
            return [], (
                failure_entry(job.engine, job.scenario.to_dict(), error),
                "failed",
            )
        path = PATH_SIMULATED if self.config.fast_path else None
        return wires, (store_entry(report, path), "settled")

    # -- the event stream ----------------------------------------------------

    def _publish(self, job: Job, event: str, data: Mapping[str, Any] | None) -> None:
        job.events.append(envelope(len(job.events), event, job.key, data))
        waker, job.waker = job.waker, asyncio.Event()
        waker.set()
        if event in TERMINAL_EVENTS:
            job.finished.set()

    def _publish_milestone(self, job: Job, wire: dict) -> None:
        kind = wire["kind"]
        self._milestone_counts[kind] = self._milestone_counts.get(kind, 0) + 1
        if len(job.events) >= MAX_EVENTS_PER_JOB:
            job.dropped_events += 1
            return
        self._publish(job, "milestone", wire)

    def job(self, key: str) -> Job:
        """The live or retained job for ``key``; raises if unknown."""
        try:
            return self._jobs[key]
        except KeyError:
            raise ServeError(f"no such job: {key}") from None

    def abort(self, key: str, reason: str = "client abort") -> bool:
        """Request eviction of a queued or running job.

        Returns ``False`` when the job is already terminal (nothing to
        do); the abort itself lands asynchronously — subscribers see the
        terminal ``aborted`` event when the worker honours it.
        """
        job = self.job(key)
        if job.terminal:
            return False
        job.abort_requested = True
        job.abort_reason = reason
        return True

    async def subscribe(
        self, key: str, from_seq: int = 0
    ) -> AsyncIterator[dict]:
        """Replay a job's events from ``from_seq``, then follow live.

        Yields envelope dicts; returns after yielding a terminal event
        (``settled`` / ``failed`` / ``aborted``).
        """
        job = self.job(key)
        job.subscribers += 1
        seq = max(0, from_seq)
        try:
            while True:
                waker = job.waker
                while seq < len(job.events):
                    event = job.events[seq]
                    seq += 1
                    yield event
                    if event["event"] in TERMINAL_EVENTS:
                        return
                if job.terminal:
                    # Terminal event already consumed by an earlier
                    # from_seq window, or dropped: stop following.
                    return
                await waker.wait()
        finally:
            job.subscribers -= 1

    async def wait(self, key: str, timeout: float | None = None) -> Job:
        """Block until ``key``'s job is terminal (long-poll primitive).

        Resumes once, when the terminal event is published; a spent
        ``timeout`` returns the job as it stands without yielding.
        """
        job = self.job(key)
        if job.terminal or (timeout is not None and timeout <= 0):
            return job
        if timeout is None:
            await job.finished.wait()
        else:
            try:
                await asyncio.wait_for(job.finished.wait(), timeout)
            except asyncio.TimeoutError:
                pass
        return job

    # -- metrics -------------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """The metrics document (``GET /v1/status``)."""
        by_status: dict[str, int] = {}
        for job in self._jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        latencies = sorted(self._latencies)
        in_flight = sum(
            1 for job in self._jobs.values() if job.status == "running"
        )
        total = self._counters["submitted"]
        hits = self._counters["cache_hits"]
        doc: dict[str, Any] = {
            "schema": WIRE_SCHEMA,
            "uptime_seconds": (
                0.0
                if self._started_at is None
                else time.monotonic() - self._started_at
            ),
            "queue_depth": 0 if self._queue is None else self._queue.qsize(),
            "in_flight": in_flight,
            "jobs": by_status,
            "cache_hit_rate": (hits / total) if total else 0.0,
            "milestones": dict(self._milestone_counts),
            "latency": {
                "count": len(latencies),
                "mean_ms": (
                    sum(latencies) / len(latencies) * 1000 if latencies else None
                ),
                "p50_ms": _ms(nearest_rank(latencies, 0.50)),
                "p99_ms": _ms(nearest_rank(latencies, 0.99)),
            },
            "store_entries": len(self.store),
        }
        doc.update(self._counters)
        return doc


def nearest_rank(sorted_values: list[float], q: float) -> float | None:
    """Nearest-rank ``q``-quantile (0..1) of pre-sorted samples; ``None``
    when there are none.  The service's ``/v1/status`` latencies and
    :func:`repro.serve.client.run_load` both read theirs through it."""
    if not sorted_values:
        return None
    rank = max(0, min(len(sorted_values) - 1, round(q * len(sorted_values)) - 1))
    return sorted_values[rank]


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1000
