"""Batched scenario sweeps with process-pool fan-out.

:class:`Sweep` builds scenario grids (cartesian products over engines ×
topologies × fault plans × parameter sets), assigning each scenario a
deterministic per-scenario seed derived from the sweep's base seed — so
a sweep is reproducible regardless of worker count or execution order.

:func:`run_sweep` executes a sweep either serially or via a chunked
:class:`~concurrent.futures.ProcessPoolExecutor`.  Workers receive
scenarios as plain dicts and return reports as plain dicts (the
:class:`RunReport` round-trip), so no live simulation object ever
crosses a process boundary.  If the platform cannot spawn a pool the
sweep degrades to serial execution rather than failing.

:class:`SweepReport` aggregates the per-run reports into per-engine
tables: run counts, all-Deal and Theorem-4.9 safety rates, mean model
and wall time, and byte totals.

Passing ``store=`` (a :class:`repro.lab.store.SqliteStore`) makes sweeps
*resumable*: scenarios whose :func:`run_key` is already stored are
served from the store without executing an engine, and fresh results
are persisted (and flushed) as each worker chunk completes — even
chunks that finish out of sweep order — so an interrupted sweep picks
up where it left off and a warm re-run executes zero engines.

The entry format is owned here: :func:`store_entry` builds every
success and :func:`failure_entry` every refusal that ``run_sweep``, the
fleet worker and the swap service record.  Which report an entry holds
(closed form or simulation) is decided in one place,
:func:`repro.analysis.engine.resolve_report`.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Iterable, Sequence

from repro.api.engine import get_engine
from repro.api.report import RunReport
from repro.api.scenario import Scenario, scalar_json
from repro.crypto.hashing import sha256
from repro.digraph.digraph import Digraph, topology_memo
from repro.digraph.multigraph import MultiDigraph
from repro.errors import EngineError
from repro.sim.faults import FaultPlan

#: One unit of sweep work: which engine runs which scenario.
SweepItem = tuple[str, Scenario]


def derive_seed(base_seed: int, engine: str, index: int) -> int:
    """A stable 31-bit seed for scenario ``index`` of ``engine``."""
    digest = sha256(f"sweep:{base_seed}:{engine}:{index}".encode())
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


#: Bump when the meaning of a stored run changes incompatibly (fields
#: added to RunReport are fine; reinterpreting existing ones is not).
RUN_KEY_SCHEMA = 1


def run_key(engine: str, scenario: Scenario) -> str:
    """The content address of one (engine, scenario) run.

    A SHA-256 hex digest over the engine name and the scenario's
    canonical content (:meth:`Scenario.canonical_dict` — display names
    excluded, topology order normalised).  Two sweeps that describe the
    same physical run derive the same key, which is what lets
    :mod:`repro.lab.store` serve warm results instead of re-executing.

    The payload is composed textually from cached parts: the engine's
    JSON prefix (once per engine name) and the scenario's
    :meth:`Scenario.canonical_text` (once per scenario object, itself
    spliced from the topology's text, encoded once per topology).  The
    composition reproduces ``canonical_json({"schema": ..., "engine":
    ..., "scenario": ...})`` byte for byte (keys emitted in sorted
    order), so keys are identical to every previously stored run.
    """
    payload = f"{_run_key_head(engine)}{scenario.canonical_text()}{_RUN_KEY_TAIL}"
    return sha256(payload.encode()).hex()


@lru_cache(maxsize=16)
def _run_key_head(engine: str) -> str:
    return f'{{"engine":{json.dumps(engine, ensure_ascii=True)},"scenario":'


_RUN_KEY_TAIL = f',"schema":{RUN_KEY_SCHEMA}}}'


class Sweep:
    """A builder for an ordered batch of (engine, scenario) runs."""

    def __init__(self, name: str = "", base_seed: int = 7) -> None:
        self.name = name
        self.base_seed = base_seed
        self._items: list[SweepItem] = []

    def __len__(self) -> int:
        return len(self._items)

    def items(self) -> tuple[SweepItem, ...]:
        return tuple(self._items)

    def add(self, engine: str, scenario: Scenario) -> "Sweep":
        """Append one run, keeping the scenario's own seed and name."""
        get_engine(engine)  # fail fast on typos
        self._items.append((engine, scenario))
        return self

    def add_product(
        self,
        engines: Iterable[str],
        topologies: Iterable[Digraph | MultiDigraph | tuple[str, Digraph | MultiDigraph]],
        fault_plans: Iterable[FaultPlan | None] = (None,),
        params_grid: Iterable[dict[str, Any]] = ({},),
        strategies_grid: Iterable[dict[str, str]] = ({},),
        **scenario_kwargs: Any,
    ) -> "Sweep":
        """Cartesian expansion: every engine × topology × fault plan ×
        params × strategies combination becomes one scenario.

        Topologies may be bare graphs or ``(label, graph)`` pairs; the
        label feeds the auto-generated scenario name.  Each generated
        scenario gets a deterministic seed from :func:`derive_seed`.
        """
        engines = list(engines)
        topologies = list(topologies)
        fault_plans = list(fault_plans)
        params_grid = list(params_grid)
        strategies_grid = list(strategies_grid)
        for engine in engines:
            get_engine(engine)
            for topo_entry in topologies:
                if isinstance(topo_entry, tuple) and len(topo_entry) == 2:
                    topo_label, topology = topo_entry
                else:
                    topology, topo_label = topo_entry, ""
                for faults in fault_plans:
                    for params in params_grid:
                        for strategies in strategies_grid:
                            index = len(self._items)
                            label = topo_label or f"topo{len(topology.vertices)}"
                            scenario = Scenario(
                                topology=topology,
                                name=f"{self.name or 'sweep'}:{engine}:{label}#{index}",
                                seed=derive_seed(self.base_seed, engine, index),
                                faults=faults or FaultPlan(),
                                params=params,
                                strategies=strategies,
                                **scenario_kwargs,
                            )
                            self._items.append((engine, scenario))
        return self


def smoke_sweep() -> Sweep:
    """The canonical smoke grid: every registered engine over two tiny
    topologies.  Shared by ``python -m repro bench-smoke`` and the
    ``pytest -m smoke`` lane so the two stay the same runs by
    construction."""
    from repro.api.engine import list_engines
    from repro.digraph.generators import cycle_digraph, triangle

    return Sweep("smoke").add_product(
        list_engines(), [("tri", triangle()), ("c4", cycle_digraph(4))]
    )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def store_entry(report: RunReport, path: str | None = None) -> dict:
    """The store entry for a report an engine or the closed form just
    produced: ``{"ok": True, "report": ..., "milestones": ...}``.

    Every fresh success the sweep, the fleet worker and the swap service
    record is made here; every failure by :func:`failure_entry`.
    ``path`` stamps ``extra["path"]`` provenance on the report unless it
    already carries one (the swap service's stepped runs, which never
    pass through :func:`~repro.analysis.engine.resolve_report`).
    Milestones ride *beside* the report, not inside it: the report dict
    stays byte-identical to releases that predate milestones while the
    store still learns the lifecycle shape of every fresh run; a report
    with no milestone sequence (one that crossed a process boundary)
    gets no ``milestones`` key.  The entry is built by
    :func:`_recorded_entry` from the report's dict; for an untouched
    synthesized copy it is an :class:`EncodedEntry`.
    """
    if path is not None:
        report.extra.setdefault("path", path)
    return _recorded_entry(report, {"ok": True, "report": report.to_dict()})


def _recorded_entry(report: RunReport, entry: dict) -> dict:
    """The success entry of ``report`` from ``entry``, its first members:
    ``{"ok": True}`` and, from :func:`store_entry`, the report's dict.

    An untouched copy of a shape's synthesized report
    (:func:`~repro.analysis.engine.shape_template`) takes its milestone
    counts from the shape and comes back as an :class:`EncodedEntry`,
    whose text is the shape's stored text with this run's holes filled
    in (the shape's first stored copy splits it, :func:`split_entry_text`),
    so :func:`entry_text` encodes nothing.  Once the text is split, such
    an entry keeps no ``report`` member it was not given: nothing reads
    it when the store writes the entry's text and the caller holds the
    report, as :func:`run_sweep` does for the reports its fast path
    synthesizes inline.  Any other entry gets the report's dict.
    """
    from repro.analysis.engine import shape_template

    template = shape_template(report)
    if (template is None or not template.entry) and "report" not in entry:
        entry["report"] = report.to_dict()
    if template is None:
        counts = report.milestone_counts()
        if counts is not None:
            entry["milestones"] = counts
        return entry
    entry["milestones"] = dict(template.milestones)
    if template.entry is None:
        template.entry = split_entry_text(entry) or ()
    if not template.entry:
        return entry
    return EncodedEntry(_fill_entry_text(template.entry, report), report, entry)


class EncodedEntry(dict):
    """A success entry that carries its stored text, ``text``: equal to
    ``json.dumps(entry, sort_keys=True)`` of the entry :func:`store_entry`
    makes for its run, and its run's ``engine`` and scenario ``name``.

    An entry is recorded as it was made.  To change one, change a plain
    copy (``dict(entry)``), whose text is encoded afresh.
    """

    __slots__ = ("text", "engine", "name")

    def __init__(self, text: str, run: RunReport, members: dict) -> None:
        super().__init__(members)
        self.text = text
        self.engine = run.engine
        self.name = run.scenario.name


def entry_text(entry: dict) -> str:
    """The stored JSON text of ``entry``: the text an :class:`EncodedEntry`
    carries, else ``json.dumps(entry, sort_keys=True)``."""
    if isinstance(entry, EncodedEntry):
        return entry.text
    return json.dumps(entry, sort_keys=True)


#: Stand-ins for the members of a synthesized entry that vary within a
#: shape, in the order the stored text holds them.
_HOLES = ("\x00name", "\x00seed", "\x00topology", "\x00wall_seconds")
_TOPOLOGY_MEMBER = '"topology": '


def split_entry_text(entry: dict) -> tuple[str, ...] | None:
    """The stored text of a synthesized run's ``entry``, split at the
    members that vary among the synthesized runs of its shape: the
    scenario's ``name``, ``seed``, ``timing`` and ``topology``
    (declaration order) and ``wall_seconds``.  Every other member is
    fixed by the shape.

    ``None`` when the topology is not a simple digraph, or a stand-in
    does not occur exactly once (a vertex name that spells one); such a
    shape's entries are encoded in full.
    """
    report = entry["report"]
    scenario = {k: v for k, v in report["scenario"].items() if k != "timing"}
    if scenario["topology"]["kind"] != "digraph":
        return None
    scenario["name"], scenario["seed"], scenario["topology"] = _HOLES[:3]
    holed = {**entry, "report": {**report, "scenario": scenario, "wall_seconds": _HOLES[3]}}
    text = json.dumps(holed, sort_keys=True)
    pieces = []
    for hole in _HOLES:
        mark = json.dumps(hole)
        if text.count(mark) != 1:
            return None
        piece, _, text = text.partition(mark)
        pieces.append(piece)
    if not pieces[2].endswith(_TOPOLOGY_MEMBER):
        return None
    pieces[2] = pieces[2][: -len(_TOPOLOGY_MEMBER)]
    return (*pieces, text)


def _fill_entry_text(pieces: tuple[str, ...], report: RunReport) -> str:
    """:func:`split_entry_text`'s pieces joined around the holes of
    ``report`` (of the pieces' shape, so on a simple digraph), each hole
    encoded as the ``json`` encoder writes it."""
    scenario = report.scenario
    timing = scenario.timing
    if timing is not None:
        timing = f'"timing": {json.dumps(timing, sort_keys=True)}, '
    name, seed, topology_at, wall, end = pieces
    return (
        f"{name}{_hole_text(scenario.name)}{seed}{_hole_text(scenario.seed)}"
        f"{topology_at}{timing or ''}{_TOPOLOGY_MEMBER}"
        f"{_declared_topology_text(scenario.topology)}"
        f"{wall}{_hole_text(report.wall_seconds)}{end}"
    )


def _hole_text(value: Any) -> str:
    """``value`` as ``json.dumps(entry, sort_keys=True)`` writes it."""
    return scalar_json(value) or json.dumps(value, sort_keys=True)


def _declared_topology_text(topology: Digraph) -> str:
    """The topology member of a stored entry, in declaration order, as
    ``json.dumps(entry, sort_keys=True)`` writes it: encoded once per
    topology and kept in its memo entry
    (:func:`~repro.digraph.digraph.topology_memo`; the memo's key is the
    declaration order, so equal digraphs listed in another order get
    their own)."""
    entry = topology_memo(topology)
    text = entry.declared_text
    if text is None:
        text = entry.declared_text = json.dumps(
            {"kind": "digraph", **topology.to_dict()}, sort_keys=True
        )
    return text


def failure_entry(engine_name: str, scenario_dict: dict, error: BaseException) -> dict:
    """The store entry for a run the engine refused or could not finish.

    Failures are cacheable knowledge: a warm store answers them without
    re-running, exactly as it answers successes."""
    return {
        "ok": False,
        "engine": engine_name,
        "scenario": scenario_dict,
        "error_type": type(error).__name__,
        "message": str(error),
    }


def synthesize_entry(engine_name: str, scenario: Scenario) -> dict | None:
    """:func:`~repro.analysis.engine.synthesize_run` as a store entry,
    or ``None`` when the scenario must be simulated."""
    from repro.analysis.engine import synthesize_run

    report = synthesize_run(engine_name, scenario)
    return None if report is None else store_entry(report)


def execute_payload(payload: tuple[str, dict], fast_path: bool = False) -> dict:
    """Resolve one ``(engine_name, scenario_dict)`` payload into a store
    entry dict — the single unit of sweep work, reusable by anything
    that drains scenarios outside :func:`run_sweep` (the
    :mod:`repro.fleet` worker loop drives exactly this function).

    The report comes from :func:`~repro.analysis.engine.resolve_report`:
    with ``fast_path=True`` a fully covered scenario is answered in
    closed form and a simulated one is stamped ``extra["path"] =
    "simulated"``, so ``lab stats --by path`` partitions fleet-drained
    runs the same way it partitions ``run_sweep(fast_path=True)`` ones.

    Must stay module-level so it pickles under both fork and spawn
    start methods.  Domain errors (:class:`ReproError` — e.g. a
    single-leader engine on a digraph with no single-vertex feedback
    vertex set) are expected in cartesian sweeps and come back as
    :func:`failure_entry` records instead of killing the whole batch;
    genuine bugs still propagate.
    """
    engine_name, scenario_dict = payload
    entry, _ = execute_scenario(engine_name, Scenario.from_dict(scenario_dict), fast_path)
    return entry


def execute_scenario(
    engine_name: str, scenario: Scenario, fast_path: bool = False
) -> tuple[dict, RunReport | None]:
    """:func:`execute_payload` on a scenario this process already holds:
    the store entry, and the report it was made from (``None`` for a
    :func:`failure_entry`).  The report's :attr:`~RunReport.raw` is
    dropped, so it matches the entry's decoding and holds no live
    simulation."""
    from repro.analysis.engine import resolve_report
    from repro.errors import ReproError

    try:
        report = resolve_report(engine_name, scenario, fast_path)
    except ReproError as error:
        return failure_entry(engine_name, scenario.to_dict(), error), None
    report.raw = None
    return store_entry(report), report


def execute_chunk(
    payloads: Sequence[tuple[str, dict]], fast_path: bool = False
) -> list[dict]:
    """Execute one chunk of payloads into entry dicts, in order — the
    pickled process-pool entry point.

    Chunks are the unit of persistence: :func:`run_sweep` records every
    entry of a chunk the moment its future completes (so a chunk
    finished out of sweep order survives an interruption even while
    earlier chunks are still running), and the fleet coordinator
    commits a chunk's entries atomically with its lease release.
    """
    return [execute_payload(payload, fast_path=fast_path) for payload in payloads]


@dataclass
class FailedRun:
    """One scenario an engine could not express or execute."""

    engine: str
    scenario: Scenario
    error_type: str
    message: str


@dataclass(frozen=True)
class SweepProgress:
    """One completion tick streamed to ``run_sweep(progress=...)``.

    Emitted once for the cache-served prefix (when a store is warm) and
    then once per recorded chunk (parallel mode) or item (serial mode),
    so callers see per-item completion *as chunks land*, not after the
    barrier.  ``milestones`` aggregates the milestone counts of this
    tick's freshly executed runs — the per-chunk lifecycle stats.
    """

    completed: int
    """Items recorded so far (cached + executed), out of ``total``."""
    total: int
    fresh: int
    """Items recorded by this tick (0 for the cache-served tick)."""
    cached: int
    """Items served from the store so far."""
    milestones: dict[str, int]
    """Summed milestone counts over this tick's fresh runs."""


@dataclass
class SweepReport:
    """Aggregated results of one sweep execution.

    ``reports`` holds the successful runs in sweep order; scenarios that
    raised a :class:`~repro.errors.ReproError` (infeasible topology for
    the engine, contradictory params, ...) land in ``failures`` rather
    than aborting the batch.
    """

    reports: list[RunReport]
    wall_seconds: float
    mode: str
    """``process-pool``, ``serial``, ``serial-fallback``, ``cached``
    (every scenario was served from the store), or ``analytic`` (every
    fresh scenario was answered by the closed-form fast path)."""
    workers: int = 1
    failures: list[FailedRun] = field(default_factory=list)
    executed: int = 0
    """Scenarios that actually ran an engine this invocation."""
    cached: int = 0
    """Scenarios served from the run store without executing."""
    analytic: int = 0
    """Scenarios answered by the closed-form fast path (``fast_path=``):
    a report synthesized inline from the static analysis, no engine
    executed and no worker slot occupied."""

    def __len__(self) -> int:
        return len(self.reports)

    def raise_failures(self) -> None:
        """Escalate collected failures into one :class:`EngineError`."""
        if self.failures:
            details = "; ".join(
                f"{f.engine}:{f.scenario.label()}: {f.error_type}: {f.message}"
                for f in self.failures
            )
            raise EngineError(f"{len(self.failures)} sweep run(s) failed: {details}")

    def by_engine(self) -> dict[str, list[RunReport]]:
        grouped: dict[str, list[RunReport]] = {}
        for report in self.reports:
            grouped.setdefault(report.engine, []).append(report)
        return grouped

    def all_deal_rate(self, engine: str | None = None) -> float:
        pool = [r for r in self.reports if engine is None or r.engine == engine]
        if not pool:
            return 0.0
        return sum(r.all_deal() for r in pool) / len(pool)

    def summary(self) -> str:
        cache_note = f", {self.cached} cached" if self.cached else ""
        if self.analytic:
            cache_note += f", {self.analytic} analytic"
        lines = [
            f"sweep: {len(self.reports)} runs in {self.wall_seconds * 1000:.0f}ms "
            f"({self.mode}, {self.workers} worker(s){cache_note})"
        ]
        for engine, reports in sorted(self.by_engine().items()):
            deals = sum(r.all_deal() for r in reports)
            safe = sum(r.conforming_acceptable() for r in reports)
            lines.append(
                f"  {engine:<16} runs={len(reports):<3} all-Deal={deals:<3} "
                f"Thm4.9-safe={safe}"
            )
        for failure in self.failures:
            lines.append(
                f"  FAILED {failure.engine}:{failure.scenario.label()} — "
                f"{failure.error_type}: {failure.message}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "executed": self.executed,
            "cached": self.cached,
            "analytic": self.analytic,
            "reports": [r.to_dict() for r in self.reports],
            "failures": [
                {
                    "engine": f.engine,
                    "scenario": f.scenario.to_dict(),
                    "error_type": f.error_type,
                    "message": f.message,
                }
                for f in self.failures
            ],
        }


def run_sweep(
    sweep: Sweep | Sequence[SweepItem],
    parallel: bool = True,
    max_workers: int | None = None,
    store: Any | None = None,
    progress: Callable[[SweepProgress], None] | None = None,
    fast_path: bool = False,
) -> SweepReport:
    """Execute every scenario in ``sweep`` and aggregate the reports.

    With ``parallel=True`` (the default) scenarios fan out over a
    chunked :class:`ProcessPoolExecutor`; report order always matches
    sweep order.  Scenarios are deterministic in their seeds, so serial
    and parallel execution produce identical reports (modulo wall
    time).

    With ``store=`` (a :class:`repro.lab.store.SqliteStore`) the sweep
    is incremental: scenarios whose :func:`run_key` the store already
    holds are served from it (``SweepReport.cached``) and never reach
    an engine, while fresh results are persisted chunk by chunk as
    workers complete — an interrupted sweep keeps every chunk recorded
    before the kill, and a fully warm re-run reports ``mode ==
    "cached"`` with zero engine executions.

    ``progress=`` streams per-item completion through the session layer:
    the callback receives a :class:`SweepProgress` per recorded chunk
    (with that chunk's aggregated milestone counts) the moment the chunk
    lands — including out-of-order chunks — plus one leading tick for
    any cache-served prefix.

    ``fast_path=True`` partitions the store-miss residue by analyzer
    eligibility *before* chunking: scenarios the static verifier covers
    with ``coverage="full"`` (see :mod:`repro.analysis.engine`) get
    their reports synthesized inline — closed form, no engine, no
    worker slot — and only the remainder ships to the pool, carrying
    the flag into :func:`execute_chunk`.  Every report produced under
    ``fast_path`` carries its provenance in ``extra["path"]``
    (``"analytic"`` or ``"simulated"``, stamped by
    :func:`~repro.analysis.engine.resolve_report`); run keys are
    unaffected (the path stamp is not part of the key preimage), so
    fast-path and plain sweeps share one warm store.
    """
    items = sweep.items() if isinstance(sweep, Sweep) else tuple(sweep)
    if not items:
        raise EngineError("run_sweep needs at least one scenario")
    if max_workers is not None and max_workers < 1:
        raise EngineError(f"max_workers must be >= 1, got {max_workers}")
    start = time.perf_counter()

    entries: list[dict | None] = [None] * len(items)
    keys: list[str | None] = [None] * len(items)
    if store is not None:
        for index, (engine_name, scenario) in enumerate(items):
            keys[index] = run_key(engine_name, scenario)
            entries[index] = store.get(keys[index])
    pending = [i for i in range(len(items)) if entries[i] is None]
    cached_total = len(items) - len(pending)
    completed = cached_total  # running counter; keeps ticks O(fresh)

    def notify(fresh_indices: Sequence[int]) -> None:
        if progress is None:
            return
        milestones: dict[str, int] = {}
        for index in fresh_indices:
            for kind, count in (entries[index].get("milestones") or {}).items():
                milestones[kind] = milestones.get(kind, 0) + count
        progress(
            SweepProgress(
                completed=completed,
                total=len(items),
                fresh=len(fresh_indices),
                cached=cached_total,
                milestones=milestones,
            )
        )

    if cached_total:
        notify(())

    def record(index: int, entry: dict) -> None:
        nonlocal completed
        entries[index] = entry
        completed += 1
        if store is not None:
            store.put(keys[index], entry)

    def flush_store() -> None:
        # Make everything recorded so far crash-durable.
        if store is not None:
            store.flush()

    analytic_total = 0
    # Reports made in this process, handed to _assemble as is.
    inline: dict[int, RunReport] = {}
    if fast_path and pending:
        from repro.analysis.engine import synthesize_run

        # Partition the residue by analyzer eligibility before chunking:
        # fully-covered scenarios are answered in closed form right here
        # (cheaper than shipping them to a worker), the rest simulate.
        residue: list[int] = []
        synthesized: list[int] = []
        for index in pending:
            engine_name, scenario = items[index]
            report = synthesize_run(engine_name, scenario)
            if report is None:
                residue.append(index)
                continue
            record(index, _recorded_entry(report, {"ok": True}))
            inline[index] = report
            synthesized.append(index)
        if synthesized:
            flush_store()
            notify(synthesized)
        analytic_total = len(synthesized)
        pending = residue

    mode = "cached"
    workers = 0
    if len(pending) > 1 and parallel:
        mode = "process-pool"
        workers = max_workers or min(len(pending), os.cpu_count() or 2, 8)
        chunksize = max(1, len(pending) // (workers * 4))
        # Only pool-infrastructure failures trigger the serial fallback;
        # exceptions raised by engine code inside a worker propagate
        # unchanged (domain errors were already collected worker-side).
        pool = None
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, PermissionError, RuntimeError):
            mode, workers = "serial-fallback", 1
        if pool is not None:
            # submit + as_completed, not pool.map: map yields strictly in
            # submission order, so a result completed out of order would
            # sit unrecorded (and unpersisted) until every earlier chunk
            # finished — an interrupted sweep would lose completed work.
            payloads = [(items[i][0], items[i][1].to_dict()) for i in pending]
            chunks = [
                (pending[i : i + chunksize], payloads[i : i + chunksize])
                for i in range(0, len(payloads), chunksize)
            ]
            try:
                with pool:
                    futures = {
                        pool.submit(execute_chunk, chunk, fast_path): chunk_indices
                        for chunk_indices, chunk in chunks
                    }
                    for future in as_completed(futures):
                        chunk_indices = futures[future]
                        for index, entry in zip(chunk_indices, future.result()):
                            record(index, entry)
                        flush_store()  # each chunk is durable on arrival
                        notify(chunk_indices)
            except (BrokenProcessPool, OSError, PermissionError):
                # Sandboxes that refuse fork/spawn at submit time still
                # get a correct (serial) sweep; anything recorded before
                # the pool broke is kept, not re-run.
                mode, workers = "serial-fallback", 1
    elif pending:
        mode, workers = "serial", 1

    if mode in ("serial", "serial-fallback"):
        # Nothing leaves the process: run the scenarios the sweep holds
        # and keep the reports, as for the synthesized ones above.
        for index in pending:
            if entries[index] is None:
                entry, report = execute_scenario(*items[index], fast_path)
                record(index, entry)
                if report is not None:
                    inline[index] = report
                flush_store()
                notify((index,))

    if not pending and analytic_total:
        mode = "analytic"

    return _assemble(
        entries, start, mode, workers, inline,
        executed=len(pending), cached=cached_total, analytic=analytic_total,
    )


def _assemble(
    dicts: list[dict],
    start: float,
    mode: str,
    workers: int,
    inline: dict[int, RunReport],
    executed: int = 0,
    cached: int = 0,
    analytic: int = 0,
) -> SweepReport:
    """The :class:`SweepReport` over every entry, in sweep order.

    Entries from the store or a worker process are decoded; the
    reports in ``inline`` (made in this process — synthesized, or run
    serially — and already equal to their entries' decoding) are used
    as they are.
    """
    reports: list[RunReport] = []
    failures: list[FailedRun] = []
    for index, entry in enumerate(dicts):
        if entry["ok"]:
            report = inline.get(index)
            if report is None:
                report = RunReport.from_dict(entry["report"])
            reports.append(report)
        else:
            failures.append(
                FailedRun(
                    engine=entry["engine"],
                    scenario=Scenario.from_dict(entry["scenario"]),
                    error_type=entry["error_type"],
                    message=entry["message"],
                )
            )
    return SweepReport(
        reports=reports,
        wall_seconds=time.perf_counter() - start,
        mode=mode,
        workers=workers,
        failures=failures,
        executed=executed,
        cached=cached,
        analytic=analytic,
    )
