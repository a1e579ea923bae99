"""A blocking stdlib client for the swap service, plus the load generator.

:class:`ServeClient` wraps ``http.client`` — submit scenarios, long-poll
job status, stream NDJSON milestone events (validated against the wire
schema on receipt), read metrics, request aborts.  It is what the
``serve-bench`` CLI, benchmark E27, and CI drive the daemon with; being
pure stdlib it doubles as executable documentation of the wire format.

:class:`BackgroundServer` runs a full daemon (service + HTTP transport)
on a private event loop in a background thread — the harness tests,
benchmarks, and the load generator use it to exercise the real TCP
surface in-process.

:func:`run_load` is the measurement core of bench E27: ``clients``
threads submit distinct scenarios as fast as admission control lets
them (429s are honoured by sleeping ``Retry-After``), long-poll each to
settlement, and report sustained scenarios/sec plus submit-to-settled
latency percentiles.
"""

from __future__ import annotations

import argparse
import http.client
import json
import threading
import time
from typing import Any, Iterator, Mapping, Sequence

from repro.errors import ServeError
from repro.serve.events import check_envelope


class ServeClient:
    """Blocking HTTP client for one ``repro serve`` daemon."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        client_id: str | None = None,
        timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------------

    def _connect(self, timeout: float | None = None) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout
        )

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.client_id:
            headers["X-Repro-Client"] = self.client_id
        return headers

    def request(
        self, method: str, path: str, payload: Any = None
    ) -> tuple[int, dict[str, str], Any]:
        """One request/response cycle; returns (status, headers, json)."""
        conn = self._connect()
        try:
            body = None if payload is None else json.dumps(payload)
            conn.request(method, path, body=body, headers=self._headers())
            response = conn.getresponse()
            raw = response.read()
            doc = json.loads(raw) if raw else None
            return response.status, dict(response.getheaders()), doc
        finally:
            conn.close()

    # -- the service surface -------------------------------------------------

    def submit(
        self, scenario: Mapping[str, Any], engine: str | None = None
    ) -> tuple[int, dict]:
        """Submit one scenario dict; returns (http status, response doc).

        200 = warm-cache hit (the doc carries the stored report),
        202 = accepted/coalesced, 429 = backpressure (``retry_after``)."""
        payload: dict[str, Any] = {"scenario": dict(scenario)}
        if engine is not None:
            payload["engine"] = engine
        status, _, doc = self.request("POST", "/v1/runs", payload)
        return status, doc

    def get(self, key: str, wait: float | None = None) -> dict:
        path = f"/v1/runs/{key}"
        if wait is not None:
            path += f"?wait={wait}"
        status, _, doc = self.request("GET", path)
        if status == 404:
            raise ServeError(doc.get("message", f"no such job: {key}"))
        return doc

    def wait_settled(self, key: str, timeout: float = 60.0) -> dict:
        """Long-poll until the job is terminal; raises on deadline."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServeError(f"job {key[:12]} not terminal after {timeout}s")
            doc = self.get(key, wait=min(remaining, 10.0))
            if doc["status"] in ("settled", "failed", "aborted"):
                return doc

    def events(self, key: str, from_seq: int = 0) -> Iterator[dict]:
        """Stream the job's envelope events (schema-validated NDJSON)."""
        conn = self._connect()
        try:
            conn.request(
                "GET",
                f"/v1/runs/{key}/events?from={from_seq}",
                headers=self._headers(),
            )
            response = conn.getresponse()
            if response.status != 200:
                raise ServeError(
                    f"event stream for {key[:12]} answered {response.status}"
                )
            for raw in response:  # http.client undoes the chunking
                line = raw.strip()
                if line:
                    yield check_envelope(json.loads(line))
        finally:
            conn.close()

    def abort(self, key: str) -> dict:
        _, _, doc = self.request("DELETE", f"/v1/runs/{key}")
        return doc

    def status(self) -> dict:
        _, _, doc = self.request("GET", "/v1/status")
        return doc

    def healthy(self) -> bool:
        try:
            status, _, doc = self.request("GET", "/v1/healthz")
        except OSError:
            return False
        return status == 200 and bool(doc and doc.get("ok"))


class BackgroundServer:
    """A live daemon on a background thread (tests, benches, serve-bench).

    Context-manager: entering starts the event loop, service, and TCP
    listener (``port=0`` picks a free port, readable afterwards as
    ``.port``); exiting evicts live jobs and joins the loop thread.
    """

    def __init__(self, service=None, host: str = "127.0.0.1", port: int = 0) -> None:
        from repro.serve.http import ServeHTTP
        from repro.serve.service import SwapService

        self.server = ServeHTTP(service or SwapService(), host=host, port=port)
        self.host = host
        self.port = port
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._loop = None
        self._stop_event = None
        self._thread: threading.Thread | None = None

    async def _main(self) -> None:
        import asyncio

        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as error:  # surface bind failures to the caller
            self._failure = error
            self._ready.set()
            raise
        self.host, self.port = self.server.host, self.server.port
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            await self.server.stop()

    def start(self) -> "BackgroundServer":
        import asyncio

        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-serve-bg",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=15):
            raise ServeError("background server did not come up within 15s")
        if self._failure is not None:
            raise ServeError(f"background server failed to start: {self._failure}")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=15)

    def client(self, client_id: str | None = None) -> ServeClient:
        return ServeClient(self.host, self.port, client_id=client_id)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


def sample_scenarios(
    count: int, base_seed: int = 7, family: str = "triangle"
) -> list[dict]:
    """``count`` distinct submission payloads (seed-varied, cache-cold).

    Shared by ``python -m repro serve-bench`` and bench E27 so the CLI
    and the recorded artifact measure the same workload.
    """
    from repro.api.scenario import Scenario
    from repro.digraph.generators import cycle_digraph, triangle

    scenarios = []
    for index in range(count):
        topology = triangle() if family == "triangle" else cycle_digraph(4)
        scenarios.append(
            Scenario(
                topology=topology,
                seed=base_seed + index,
                name=f"serve-load:{family}#{index}",
            ).to_dict()
        )
    return scenarios


# -- the load generator -------------------------------------------------------


def run_load(
    host: str,
    port: int,
    scenarios: Sequence[Mapping[str, Any]],
    engine: str | None = None,
    clients: int = 4,
) -> dict[str, Any]:
    """Blast ``scenarios`` at a daemon and measure the service envelope.

    ``clients`` worker threads drain one shared work list; each submits
    (sleeping out any 429 ``Retry-After``), long-polls its job to a
    terminal state, and records the submit-to-settled wall latency.
    Returns sustained scenarios/sec, latency percentiles, and the
    daemon's own ``/v1/status`` counters afterwards.
    """
    from repro.serve.service import nearest_rank

    work: list[tuple[int, Mapping[str, Any]]] = list(enumerate(scenarios))
    lock = threading.Lock()
    latencies: list[float] = []
    outcomes = {"settled": 0, "failed": 0, "aborted": 0, "cached": 0}
    retries = 0
    errors: list[str] = []

    def worker(worker_id: int) -> None:
        nonlocal retries
        client = ServeClient(host, port, client_id=f"load-{worker_id}")
        while True:
            with lock:
                if not work:
                    return
                _, scenario = work.pop()
            begin = time.monotonic()
            while True:
                status, doc = client.submit(scenario, engine=engine)
                if status == 429:
                    with lock:
                        retries += 1
                    time.sleep(min(float(doc.get("retry_after", 0.5)), 2.0))
                    continue
                break
            if status not in (200, 202):
                with lock:
                    errors.append(f"submit answered {status}: {doc}")
                return
            if status == 200:  # warm hit: settled without executing
                with lock:
                    outcomes["cached"] += 1
                    latencies.append(time.monotonic() - begin)
                continue
            final = client.wait_settled(doc["key"])
            with lock:
                latencies.append(time.monotonic() - begin)
                outcomes[final["status"]] = outcomes.get(final["status"], 0) + 1

    started = time.monotonic()
    threads = [
        threading.Thread(target=worker, args=(i,), name=f"load-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - started
    if errors:
        raise ServeError("; ".join(errors[:3]))

    latencies.sort()
    daemon = ServeClient(host, port).status()
    completed = sum(outcomes.values())
    return {
        "scenarios": len(scenarios),
        "clients": clients,
        "wall_seconds": wall,
        "throughput_per_sec": completed / wall if wall > 0 else 0.0,
        "outcomes": outcomes,
        "latency_seconds": {
            "count": len(latencies),
            "mean": sum(latencies) / len(latencies) if latencies else None,
            "p50": nearest_rank(latencies, 0.50),
            "p99": nearest_rank(latencies, 0.99),
        },
        "rate_limit_retries": retries,
        "daemon": {
            key: daemon.get(key)
            for key in (
                "submitted",
                "accepted",
                "coalesced",
                "cache_hits",
                "cache_hit_rate",
                "executed",
                "failed",
                "aborted",
                "rejected_queue_full",
                "rejected_rate_limited",
                "milestones",
            )
        },
    }


# -- the `python -m repro serve-bench` entry point ----------------------------


def bench_main(argv: Sequence[str] | None = None) -> int:
    """Boot an in-process daemon and measure its service envelope."""
    from repro.serve.http import add_service_args, make_service

    parser = argparse.ArgumentParser(
        prog="repro serve-bench",
        description="load-generate against an in-process repro serve daemon",
    )
    parser.add_argument("--scenarios", type=int, default=64)
    parser.add_argument("--clients", type=int, default=4)
    add_service_args(parser, 0.0, "per-client rate limit (0 = unlimited)")
    parser.add_argument("--json", dest="json_path", default="",
                        help="also write the results document to this path")
    args = parser.parse_args(argv)
    # No scenario or no client measures nothing: there is no latency
    # to report and no warm pass to check.
    for flag, value in (("--scenarios", args.scenarios), ("--clients", args.clients)):
        if value < 1:
            raise ServeError(f"{flag} must be >= 1, got {value}")

    scenarios = sample_scenarios(args.scenarios)
    with BackgroundServer(make_service(args)) as bg:
        results = run_load(
            bg.host, bg.port, scenarios, engine=args.engine, clients=args.clients
        )
        # Warm resubmission: every scenario is now stored, so a second
        # pass must be served entirely from cache (zero engines).
        before = bg.client().status()["executed"]
        warm = run_load(
            bg.host, bg.port, scenarios, engine=args.engine, clients=args.clients
        )
        results["warm"] = {
            "outcomes": warm["outcomes"],
            "throughput_per_sec": warm["throughput_per_sec"],
            "engines_executed": bg.client().status()["executed"] - before,
        }
    latency = results["latency_seconds"]
    print(
        f"serve-bench: {results['scenarios']} scenarios, "
        f"{results['clients']} client(s): "
        f"{results['throughput_per_sec']:.1f}/s sustained, "
        f"p50 {latency['p50'] * 1000:.1f}ms, p99 {latency['p99'] * 1000:.1f}ms"
    )
    print(
        f"warm resubmission: {warm['outcomes']['cached']} cached, "
        f"{results['warm']['engines_executed']} engine(s) executed, "
        f"{results['warm']['throughput_per_sec']:.1f}/s"
    )
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json_path}")
    if results["warm"]["engines_executed"] != 0:
        print("FAILED: warm resubmission executed an engine")
        return 1
    return 0
