"""The four benchmark workloads: seeded inputs, one timed operation, checks.

Every workload runs in the benchmark's own process: no process pool, no
HTTP, no child process, and at most ``os.cpu_count()`` threads.  A run is
a sequence of *rounds*.  Each round gets fresh inputs derived from the
run's seed and the round index, a fresh SQLite file, and its own set-up
(pre-warming for ``serve-mixed``, enqueueing for ``fleet-drain``); only
the round's single front-end call is timed.  Every scenario of a round
carries a round-specific ``start_time``, so no scenario shape recurs
across rounds and the program's own memos (the analytic shape memo)
behave as they would on a stream of new work rather than a replay.

A workload is an object with five methods:

``prepare(seed, index)``
    Build the round (untimed; its duration is a set-up sample).
``run(round)``
    The timed operation: one front-end call; returns its raw result.
``summarize(round, result)``
    Untimed: pair the raw result with run keys and report dicts, read
    the store back, and return an :class:`Outcome`.
``check(round, outcome)``
    Output checks; returns a list of problems (empty when correct).
``close(round)``
    Release the round's service, event loop and files.
"""

from __future__ import annotations

import asyncio
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from time import perf_counter
from typing import Any, Callable

from repro.analysis.protocol import analyze_scenario
from repro.api.engine import get_engine
from repro.api.report import RunReport
from repro.api.scenario import Scenario
from repro.api.sweep import SweepReport, derive_seed, run_key
from repro.errors import ReproError
from repro.fleet.coordinator import FleetConfig, FleetCoordinator
from repro.fleet.worker import FleetWorker, WorkerStats
from repro.lab.store import SqliteStore
from repro.lab.workloads import Workload, build_sweep
from repro.serve.service import ServiceConfig, SwapService

# The timed calls go through the module attribute so that the tracer's
# wrapper (installed on ``repro.api.sweep.run_sweep``) sees them.
import repro.api.sweep as sweep_module

#: Adversary mixes and timing models of the simulated workloads.
SIM_MIXES = ("all-conforming", "phase-crash", "last-moment", "colluding-crash")
SIM_TIMINGS = ("uniform", "jittered", "stragglers")

#: Strongly connected lab families, fixed sizes: diam and |A| vary
#: across families, the seed varies the random arcs and adversaries.
SIM_FAMILIES = (
    ("clique", {"n": 4}),
    ("erdos-renyi", {"n": 6, "p": 0.25}),
    ("wheel", {"rim": 4}),
    ("power-law", {"n": 7, "exponent": 2.2, "extra": 4}),
)

#: Shapes the analytic path fully covers (all-conforming, uniform).
ANALYTIC_FAMILIES = (
    ("clique", {"n": 3}),
    ("clique", {"n": 5}),
    ("wheel", {"rim": 4}),
    ("erdos-renyi", {"n": 7, "p": 0.3}),
)

#: Analytic reports re-simulated with ``herlihy`` per run (round 0).
RESIMULATED = 3

Item = tuple[str, Scenario]


@dataclass
class Round:
    """One round's inputs and the program objects set up for it."""

    index: int
    items: list[Item]
    path: Path
    kinds: list[str] = field(default_factory=list)
    """Per item: ``warm``/``analytic``/``sim`` (serve-mixed only)."""
    state: dict[str, Any] = field(default_factory=dict)


@dataclass
class Outcome:
    """What one timed operation produced, read back after it."""

    resolved: int
    """Scenarios resolved: reported, settled, or committed."""
    attempted: int
    failed: int
    results: list[tuple[Item, str, dict]]
    """``(item, run key, report dict)`` per resolved scenario."""
    latencies: list[float] = field(default_factory=list)
    """Seconds per submission (serve-mixed); empty for batch workloads."""
    layers: dict[str, float] = field(default_factory=dict)
    """Per-layer figures the program reports itself (job timestamps,
    worker stats), summed over rounds by the runner."""
    stats: dict[str, Any] = field(default_factory=dict)


def comparable(report: dict) -> bytes:
    """A report's bytes without the two declared non-deterministic
    fields: ``wall_seconds`` and the ``extra["path"]`` provenance stamp."""
    data = dict(report)
    data.pop("wall_seconds", None)
    data["extra"] = {k: v for k, v in data.get("extra", {}).items() if k != "path"}
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def _grid(
    label: str,
    rng: Random,
    families: tuple[tuple[str, dict], ...],
    mixes: tuple[str, ...] = ("all-conforming",),
    timings: tuple[str, ...] = ("uniform",),
    copies: int = 1,
) -> list[Item]:
    """``herlihy`` items over ``families`` x mixes x timings.

    Each (family, mix, timing) draws its own seed, hence its own random
    topology and adversaries: a round averages over many independent
    draws, so one costly topology cannot dominate its time.  ``copies``
    repeats the grid with fresh scenario seeds over the same topologies,
    so each shape recurs that many times.
    """
    start_time = rng.randrange(1000)
    workloads = [
        Workload(
            family,
            grid,
            mixes=(mix,),
            timings=(timing,),
            seed=rng.randrange(1 << 30),
            name=f"{label}-{family}",
            scenario_kwargs={"start_time": start_time},
        )
        for family, grid in families
        for mix in mixes
        for timing in timings
    ]
    return list(build_sweep(workloads * copies, name=label).items())


def _round_rng(workload: str, seed: int, index: int) -> Random:
    return Random(derive_seed(seed, f"perfbench:{workload}", index))


def _fresh(path: Path) -> Path:
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)
    return path


def _mix_and_timing(name: str) -> tuple[str, str]:
    """Parse a lab scenario name ``lab:label:params:mix:engine[@timing]#i``."""
    parts = name.split(":")
    engine_label = parts[-1].split("#")[0]
    return parts[-2], engine_label.partition("@")[2] or "uniform"


def _analytic_eligible(item: Item) -> bool:
    engine, scenario = item
    return analyze_scenario(scenario, engine=engine).coverage == "full"


def _sweep_outcome(rnd: Round, report: SweepReport) -> Outcome:
    """Pair each report of a :class:`SweepReport` with its item and key."""
    failed = {(f.engine, f.scenario.name) for f in report.failures}
    ok = [item for item in rnd.items if (item[0], item[1].name) not in failed]
    return Outcome(
        resolved=len(report.reports),
        attempted=len(rnd.items),
        failed=len(report.failures),
        results=[
            (item, run_key(*item), r.to_dict()) for item, r in zip(ok, report.reports)
        ],
        stats={"mode": report.mode, "analytic": report.analytic},
    )


class SweepSim:
    """Serial ``run_sweep`` with the simulated ``herlihy`` engine."""

    name = "sweep-sim"
    size = len(SIM_FAMILIES) * len(SIM_MIXES)

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def prepare(self, seed: int, index: int) -> Round:
        rng = _round_rng(self.name, seed, index)
        # Every family x mix each round, the timing model taking turns:
        # rounds of equal make-up that are short enough for the
        # reference loop around them to track the machine's speed.
        timing = SIM_TIMINGS[index % len(SIM_TIMINGS)]
        items = _grid(f"sim{index}", rng, SIM_FAMILIES, SIM_MIXES, (timing,))
        path = _fresh(self.workdir / f"{self.name}.sqlite")
        return Round(index, items, path, state={"store": SqliteStore(path)})

    def run(self, rnd: Round) -> SweepReport:
        return sweep_module.run_sweep(rnd.items, parallel=False, store=rnd.state["store"])

    def summarize(self, rnd: Round, report: SweepReport) -> Outcome:
        return _sweep_outcome(rnd, report)

    def check(self, rnd: Round, outcome: Outcome) -> list[str]:
        problems = []
        if outcome.stats["mode"] != "serial":
            problems.append(f"sweep mode {outcome.stats['mode']!r}, expected serial")
        for (_, scenario), _, report in outcome.results:
            mix, timing = _mix_and_timing(scenario.name)
            if timing == "stragglers":
                # Stragglers react later than the synchrony bound Δ that
                # Theorem 4.9 assumes, so neither property is promised.
                continue
            parsed = RunReport.from_dict(report)
            if not parsed.conforming_acceptable():
                problems.append(f"{scenario.name}: a conforming party is Underwater")
            if mix == "all-conforming" and not parsed.all_deal():
                problems.append(f"{scenario.name}: all-conforming run is not all-Deal")
        return problems

    def close(self, rnd: Round) -> None:
        rnd.state["store"].close()
        _fresh(rnd.path)


class SweepAnalytic:
    """Serial ``run_sweep(fast_path=True)``: closed-form synthesis only."""

    name = "sweep-analytic"
    copies = 6
    size = len(ANALYTIC_FAMILIES) * copies

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def prepare(self, seed: int, index: int) -> Round:
        rng = _round_rng(self.name, seed, index)
        items = _grid(f"ana{index}", rng, ANALYTIC_FAMILIES, copies=self.copies)
        path = _fresh(self.workdir / f"{self.name}.sqlite")
        return Round(index, items, path, state={"store": SqliteStore(path), "rng": rng})

    def run(self, rnd: Round) -> SweepReport:
        return sweep_module.run_sweep(
            rnd.items, parallel=False, store=rnd.state["store"], fast_path=True
        )

    def summarize(self, rnd: Round, report: SweepReport) -> Outcome:
        return _sweep_outcome(rnd, report)

    def check(self, rnd: Round, outcome: Outcome) -> list[str]:
        problems = []
        if outcome.stats["analytic"] != len(rnd.items):
            problems.append(
                f"{outcome.stats['analytic']} of {len(rnd.items)} items synthesized"
            )
        for (_, scenario), _, report in outcome.results:
            if report.get("extra", {}).get("path") != "analytic":
                problems.append(f"{scenario.name}: path is not analytic")
        if rnd.index == 0:
            # A seeded sample re-simulated with the real engine must be
            # byte-identical modulo wall_seconds and the path stamp.
            sample = rnd.state["rng"].sample(outcome.results, RESIMULATED)
            for (_, scenario), _, report in sample:
                simulated = get_engine("herlihy").run(scenario).to_dict()
                if comparable(simulated) != comparable(report):
                    problems.append(f"{scenario.name}: analytic != simulated bytes")
        return problems

    def close(self, rnd: Round) -> None:
        rnd.state["store"].close()
        _fresh(rnd.path)


class ServeMixed:
    """In-process ``SwapService``: warm, analytic and simulated tiers."""

    name = "serve-mixed"
    per_kind = 12
    size = 3 * per_kind
    one_core = True
    """The only workload with two threads (event loop + drive thread).
    Run on one core, their interpreter-lock hand-offs do not wait on the
    other core's load, and the reference loop measures the core both
    run on."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.guard: Callable[[str], None] = lambda where: None
        """Called inside the timed phase after every settled submission."""

    def prepare(self, seed: int, index: int) -> Round:
        rng = _round_rng(self.name, seed, index)
        half = self.per_kind // 2
        # Warm keys: half analytic-eligible, half simulate-only.
        warm = _grid(
            f"warm{index}", rng, ANALYTIC_FAMILIES[:2], copies=half // 2
        ) + _grid(
            f"warmsim{index}", rng, SIM_FAMILIES,
            mixes=("phase-crash",), timings=("uniform", "stragglers"),
        )[:half]
        # Cold analytic keys are all new shapes (one start_time per copy):
        # a service sees novel topologies, and the latency median then
        # falls inside this one tier instead of between tiers.
        analytic = [
            item
            for copy in range(self.per_kind // len(ANALYTIC_FAMILIES))
            for item in _grid(f"cold{index}-{copy}", rng, ANALYTIC_FAMILIES)
        ]
        simulated = [
            item
            for item in _grid(
                f"coldsim{index}", rng, SIM_FAMILIES,
                mixes=("phase-crash", "all-conforming"),
                timings=("stragglers", "uniform"),
            )
            if not _analytic_eligible(item)
        ][: self.per_kind]
        stream = (
            [("warm", item) for item in warm]
            + [("analytic", item) for item in analytic]
            + [("sim", item) for item in simulated]
        )
        if len(stream) != self.size:
            raise ValueError(f"serve-mixed stream has {len(stream)} items, not {self.size}")
        rng.shuffle(stream)
        path = _fresh(self.workdir / f"{self.name}.sqlite")
        store = SqliteStore(path)
        sweep_module.run_sweep(warm, parallel=False, store=store, fast_path=True)
        store.flush()
        loop = asyncio.new_event_loop()
        service = SwapService(
            ServiceConfig(fast_path=True, rate=0, max_concurrency=1), store=store
        )
        loop.run_until_complete(service.start())
        return Round(
            index,
            [item for _, item in stream],
            path,
            kinds=[kind for kind, _ in stream],
            state={"store": store, "loop": loop, "service": service},
        )

    def run(self, rnd: Round) -> dict[str, list]:
        return rnd.state["loop"].run_until_complete(self._serve(rnd))

    async def _serve(self, rnd: Round) -> dict[str, list]:
        """One closed-loop client.  With two, the fast tiers' latency
        measured how long the loop thread waited for the interpreter lock
        while the drive thread simulated (the 5 ms switch interval), and
        the same inputs gave medians 14% apart."""
        service = rnd.state["service"]
        done: list[tuple[str, Any, Any, float]] = []
        rejected: list[str] = []
        for kind, (engine, scenario) in zip(rnd.kinds, rnd.items):
            begun = perf_counter()
            try:
                submitted = service.submit(scenario, engine=engine, client="c0")
            except ReproError as error:
                rejected.append(f"{scenario.name}: {error}")
                continue
            job = await service.wait(submitted.key)
            done.append((kind, submitted, job, perf_counter() - begun))
            self.guard(f"{self.name} submission")
        return {"done": done, "rejected": rejected}

    def summarize(self, rnd: Round, result: dict[str, list]) -> Outcome:
        done = result["done"]
        settled = [d for d in done if d[2].status == "settled"]
        accepted = [job for kind, s, job, _ in done if s.status == "accepted"]
        layers = {
            "serve.queue_wait_s": sum(j.started_at - j.submitted_at for j in accepted),
            "serve.drive_s": sum(j.settled_at - j.started_at for j in accepted),
            "serve.jobs_driven": len(accepted),
        }
        for tier in ("cached", "analytic", "accepted"):
            layers[f"serve.tier.{tier}"] = sum(s.status == tier for _, s, _, _ in done)
        return Outcome(
            resolved=len(settled),
            attempted=len(rnd.items),
            failed=len(rnd.items) - len(settled),
            results=[
                ((job.engine, job.scenario), job.key, job.entry["report"])
                for _, _, job, _ in settled
            ],
            latencies=[latency for *_, latency in done],
            layers=layers,
            stats={
                "done": done,
                "rejected": result["rejected"],
                "executed": rnd.state["service"].status()["executed"],
            },
        )

    def check(self, rnd: Round, outcome: Outcome) -> list[str]:
        problems = list(outcome.stats["rejected"])
        expected = {"warm": "cached", "analytic": "analytic", "sim": "accepted"}
        accepted = 0
        for kind, submitted, job, _ in outcome.stats["done"]:
            if submitted.status != expected[kind]:
                problems.append(
                    f"{job.scenario.name}: {kind} key came back {submitted.status!r}"
                )
            accepted += submitted.status == "accepted"
            if job.status != "settled":
                problems.append(f"{job.scenario.name}: job {job.status}")
        if outcome.stats["executed"] != accepted:
            problems.append(
                f"{outcome.stats['executed']} engine executions for {accepted} cold runs"
            )
        return problems

    def close(self, rnd: Round) -> None:
        loop = rnd.state["loop"]
        try:
            loop.run_until_complete(rnd.state["service"].stop())
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            loop.close()
            rnd.state["store"].close()
            _fresh(rnd.path)


class FleetDrain:
    """One in-process ``FleetWorker`` draining an enqueued grid."""

    name = "fleet-drain"
    per_kind = 16
    size = 2 * per_kind
    config = FleetConfig(lease_ttl=60.0, skew_grace=5.0, chunk_size=4)

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def prepare(self, seed: int, index: int) -> Round:
        rng = _round_rng(self.name, seed, index)
        analytic = _grid(
            f"fana{index}", rng, ANALYTIC_FAMILIES,
            copies=self.per_kind // len(ANALYTIC_FAMILIES),
        )
        simulated = _grid(
            f"fsim{index}", rng, SIM_FAMILIES,
            mixes=("phase-crash", "colluding-crash"), timings=("uniform", "stragglers"),
        )[: self.per_kind]
        items = analytic + simulated
        rng.shuffle(items)
        path = _fresh(self.workdir / f"{self.name}.sqlite")
        with FleetCoordinator(path, config=self.config) as coordinator:
            begun = perf_counter()
            receipt = coordinator.enqueue(items)
            enqueue_s = perf_counter() - begun
        worker = FleetWorker(
            path, config=self.config, worker_id="perfbench-worker", fast_path=True
        )
        return Round(
            index,
            items,
            path,
            state={"worker": worker, "receipt": receipt, "enqueue_s": enqueue_s},
        )

    def run(self, rnd: Round) -> WorkerStats:
        return rnd.state["worker"].run()

    def summarize(self, rnd: Round, stats: WorkerStats) -> Outcome:
        rnd.state["worker"].close()
        by_key = {run_key(*item): item for item in rnd.items}
        with SqliteStore(rnd.path) as store:
            stored = list(store.records())
        committed = [(key, entry) for key, entry, _ in stored if entry.get("ok")]
        return Outcome(
            resolved=stats.items_committed,
            attempted=len(rnd.items),
            failed=len(rnd.items) - len(committed),
            results=[
                (by_key[key], key, entry["report"])
                for key, entry in committed
                if key in by_key
            ],
            layers={
                "fleet.idle_waits": stats.idle_waits,
                "fleet.leases_lost": stats.leases_lost,
                "fleet.enqueue_s": rnd.state["enqueue_s"],
            },
            stats={"worker": stats, "stored_keys": [key for key, _, _ in stored]},
        )

    def check(self, rnd: Round, outcome: Outcome) -> list[str]:
        problems = []
        stored = outcome.stats["stored_keys"]
        expected = {run_key(*item) for item in rnd.items}
        if rnd.state["receipt"].enqueued != len(rnd.items):
            problems.append(f"enqueued {rnd.state['receipt'].enqueued} of {len(rnd.items)}")
        if len(stored) != len(set(stored)):
            problems.append("a run key was stored twice")
        if set(stored) != expected:
            problems.append(
                f"store holds {len(set(stored) & expected)} of {len(expected)} "
                f"enqueued keys and {len(set(stored) - expected)} others"
            )
        if outcome.stats["worker"].leases_lost:
            problems.append(f"{outcome.stats['worker'].leases_lost} leases lost")
        return problems

    def close(self, rnd: Round) -> None:
        rnd.state["worker"].close()
        _fresh(rnd.path)


WORKLOADS = {
    workload.name: workload
    for workload in (SweepSim, SweepAnalytic, ServeMixed, FleetDrain)
}


def make(name: str, workdir: Path) -> Any:
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](workdir)
