"""Outside-in span tracing of the layer entry points.

The benchmark never edits ``src/``.  :func:`install` replaces each
traced entry point with a timing wrapper in every namespace that holds
it: the defining class or module, and every loaded ``repro`` module that
imported the function by name (``diameter`` is wrapped in
``repro.digraph.paths``, ``repro.core.spec``, ``repro.core.timelocks``
and ``repro.analysis.predict`` alike).  :meth:`Tracer.uninstall` puts
the originals back, so untraced rounds run the program exactly as
shipped.

A span is one call: name, start, end, parent (the top of the calling
thread's span stack) and the run key of the scenario it serves.  The key
comes from the call's arguments where they name a scenario, else from
the parent span, so every span of one scenario carries that scenario's
key.  Spans are aggregated in memory per thread (count, total time, self
time = duration minus the time covered by child spans) and merged when
the run ends; the first :data:`SAMPLE_LIMIT` raw spans per thread are
kept for inspection.
"""

from __future__ import annotations

import itertools
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

#: Raw spans kept per thread (the aggregates count every span).
SAMPLE_LIMIT = 2000

#: Extracts the run key from a call's positional arguments, or ``None``.
KeyOf = Callable[[tuple], "str | None"]
#: Called with ``(args, result)`` after a traced call returns.
OnExit = Callable[[tuple, Any], None]


@dataclass
class _ThreadLog:
    """Everything one thread recorded; merged by :meth:`Tracer.merged`."""

    thread: str
    stack: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)  # span -> [count, total_s, self_s]
    counters: dict = field(default_factory=dict)
    tops: list = field(default_factory=list)  # (start, end) of parentless spans
    edges: dict = field(default_factory=dict)  # (parent, child) -> count
    spans: list = field(default_factory=list)  # raw sample


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.keys_by_name: dict[str, str] = {}
        """Scenario name -> run key; the benchmark fills it before a
        traced round so spans carry the key from their first call."""
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self._ids = itertools.count(1)

    # -- recording -----------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def count(self, name: str, amount: float = 1) -> None:
        counters = self._log().counters
        counters[name] = counters.get(name, 0) + amount

    def wrap(
        self,
        span: str,
        fn: Callable,
        key_of: KeyOf | None = None,
        on_exit: OnExit | None = None,
    ) -> Callable:
        """``fn`` timed as span ``span``."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            log = tracer._log()
            stack = log.stack
            parent = stack[-1] if stack else None
            key = key_of(args) if key_of is not None else None
            if key is None and parent is not None:
                key = parent[3]
            # frame: [span, span id, child seconds, run key]
            frame = [span, next(tracer._ids), 0.0, key]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                    edge = (parent[0], span)
                else:
                    log.tops.append((start, end))
                    edge = ("", span)
                log.edges[edge] = log.edges.get(edge, 0) + 1
                total = log.totals.get(span)
                if total is None:
                    total = log.totals[span] = [0, 0.0, 0.0]
                total[0] += 1
                total[1] += duration
                total[2] += own
                if len(log.spans) < SAMPLE_LIMIT:
                    log.spans.append(
                        (
                            frame[1],
                            None if parent is None else parent[1],
                            log.thread,
                            span,
                            start,
                            duration,
                            own,
                            key,
                        )
                    )
            if on_exit is not None:
                on_exit(args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- patching ------------------------------------------------------------

    def patch_function(
        self,
        module: Any,
        attr: str,
        span: str,
        key_of: KeyOf | None = None,
        on_exit: OnExit | None = None,
    ) -> None:
        """Wrap ``module.attr`` and every ``repro`` module's by-name
        import of the same function object."""
        original = getattr(module, attr)
        traced = self.wrap(span, original, key_of, on_exit)
        for name, loaded in list(sys.modules.items()):
            if not name.startswith("repro") or loaded is None:
                continue
            if getattr(loaded, attr, None) is original:
                self._patches.append((loaded, attr, original))
                setattr(loaded, attr, traced)

    def patch_method(
        self,
        cls: type,
        attr: str,
        span: str,
        key_of: KeyOf | None = None,
        on_exit: OnExit | None = None,
    ) -> None:
        """Wrap a method (plain or classmethod) defined on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            traced: Any = classmethod(self.wrap(span, raw.__func__, key_of, on_exit))
        else:
            traced = self.wrap(span, raw, key_of, on_exit)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, traced)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def take_tops(self) -> list[tuple[float, float]]:
        """Intervals of parentless spans (all threads) since the last call."""
        with self._lock:
            logs = list(self._logs)
        tops: list[tuple[float, float]] = []
        for log in logs:
            tops.extend(log.tops)
            log.tops = []
        return tops

    def merged(self) -> dict[str, Any]:
        """All threads' totals, counters, edges and span samples."""
        totals: dict[str, list] = {}
        counters: dict[str, float] = {}
        edges: dict[tuple[str, str], int] = {}
        spans: list[tuple] = []
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            for span, (count, total, own) in log.totals.items():
                slot = totals.setdefault(span, [0, 0.0, 0.0])
                slot[0] += count
                slot[1] += total
                slot[2] += own
            for name, value in log.counters.items():
                counters[name] = counters.get(name, 0) + value
            for edge, count in log.edges.items():
                edges[edge] = edges.get(edge, 0) + count
            spans.extend(log.spans)
        return {"totals": totals, "counters": counters, "edges": edges, "spans": spans}


def union_seconds(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


# ---------------------------------------------------------------------------
# the patch table
# ---------------------------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics are read from."""
    import repro.analysis.engine as analysis_engine
    import repro.analysis.protocol as analysis_protocol
    import repro.api.sweep as sweep
    import repro.digraph.paths as paths
    from repro.api.engine import get_engine, list_engines
    from repro.api.execution import Execution
    from repro.api.report import RunReport
    from repro.api.scenario import Scenario
    from repro.chain.ledger import Ledger, Record
    from repro.crypto.signatures import get_scheme, scheme_names
    from repro.fleet.coordinator import FleetCoordinator
    from repro.fleet.worker import FleetWorker
    from repro.lab.store import SqliteStore
    from repro.serve.service import SwapService
    from repro.sim.scheduler import Scheduler

    keys = tracer.keys_by_name

    def named(value: Any) -> str | None:
        """The run key of a Scenario or scenario dict, by its name."""
        name = value.get("name") if isinstance(value, dict) else getattr(value, "name", None)
        return keys.get(name) if name else None

    arg0 = lambda args: named(args[0])  # noqa: E731
    arg1 = lambda args: named(args[1])  # noqa: E731

    def remember_key(args: tuple, key: str) -> None:
        keys.setdefault(args[1].name, key)

    def count_events(args: tuple, fired: int) -> None:
        tracer.count("sched.events", fired)

    encoded = Record.encoded  # the original, so byte counting adds no span

    def count_record(args: tuple, block: Any) -> None:
        tracer.count("ledger.records")
        tracer.count("ledger.bytes", len(encoded(args[1])))

    def count_get(args: tuple, entry: Any) -> None:
        tracer.count("store.gets")
        if entry is not None:
            tracer.count("store.hits")

    # Roots: the front-end entry points the benchmark calls.
    tracer.patch_function(sweep, "run_sweep", "sweep.run_sweep")
    tracer.patch_method(FleetWorker, "run", "fleet.run")
    tracer.patch_method(
        SwapService, "_drive", "serve.drive", key_of=lambda args: args[1].key
    )
    tracer.patch_method(SwapService, "submit", "serve.admit", key_of=arg1)

    tracer.patch_method(Scenario, "from_dict", "scenario.decode", key_of=arg1)
    tracer.patch_method(Scenario, "canonical_text", "scenario.canonical", key_of=arg0)
    tracer.patch_function(
        sweep, "run_key", "sweep.run_key", key_of=arg1, on_exit=remember_key
    )
    tracer.patch_function(
        sweep, "execute_payload", "sweep.execute", key_of=lambda args: named(args[0][1])
    )
    tracer.patch_function(sweep, "synthesize_entry", "sweep.synthesize", key_of=arg1)
    tracer.patch_function(
        analysis_engine, "analyze_for_fast_path", "analysis.fast_path", key_of=arg0
    )
    tracer.patch_function(
        analysis_protocol, "analyze_scenario", "analysis.analyze", key_of=arg0
    )
    tracer.patch_function(
        analysis_engine, "synthesize_report", "analysis.synthesize", key_of=arg0
    )
    for name in list_engines():
        engine_cls = type(get_engine(name))
        if "prepare" in engine_cls.__dict__:
            tracer.patch_method(engine_cls, "prepare", "harness.prepare", key_of=arg1)
    tracer.patch_function(paths, "diameter", "paths.longest")
    tracer.patch_function(paths, "longest_path_length", "paths.longest")
    tracer.patch_method(Scheduler, "run", "sched.dispatch", on_exit=count_events)
    tracer.patch_method(
        Execution, "step", "sched.step", key_of=lambda args: named(args[0].scenario)
    )
    tracer.patch_method(Ledger, "append", "ledger.append", on_exit=count_record)
    tracer.patch_method(Record, "encoded", "ledger.encode")
    for name in scheme_names():
        scheme_cls = type(get_scheme(name))
        tracer.patch_method(scheme_cls, "sign", "crypto.sign")
        tracer.patch_method(scheme_cls, "verify", "crypto.verify")
    tracer.patch_method(
        RunReport, "to_dict", "report.encode", key_of=lambda args: named(args[0].scenario)
    )
    tracer.patch_method(
        RunReport, "from_dict", "report.decode", key_of=lambda args: named(args[1]["scenario"])
    )
    by_key = lambda args: args[1]  # noqa: E731
    tracer.patch_method(SqliteStore, "put", "store.put", key_of=by_key)
    tracer.patch_method(SqliteStore, "get", "store.get", key_of=by_key, on_exit=count_get)
    tracer.patch_method(SqliteStore, "flush", "store.flush")
    tracer.patch_method(FleetCoordinator, "claim", "fleet.claim")
    tracer.patch_method(FleetCoordinator, "heartbeat", "fleet.heartbeat")
    tracer.patch_method(FleetCoordinator, "commit_chunk", "fleet.commit")
