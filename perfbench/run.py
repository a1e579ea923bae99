"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload sweep-sim --seed 1 --seconds 20 --trace 0

The program is imported from the checkout's ``src/``.  A run is one
warm-up round (checked and digested, not measured) followed by measured
rounds until ``--seconds`` have passed.  With ``--trace 0`` every
measured round is untraced and the end-to-end metrics are printed; with
``--trace 1`` measured rounds alternate untraced and traced, and the
per-layer metrics of the traced rounds are printed with the tracing
overhead and the reconciliation of span time against the timed wall.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing.process  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Iterator  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: The seed whose warm-up-round digests ``digests.json`` records.
DEFAULT_SEED = 1
#: Seconds :func:`reference_seconds` takes on the machine speed that all
#: reported times are scaled to.
REFERENCE_S = 0.015
#: Measured rounds a run makes even when ``--seconds`` is already spent.
MIN_MEASURED = 4

#: Share of each traced round's wall that the union of parentless spans
#: (all threads) must cover.  The sweeps and the fleet drain have one
#: root span around the whole call; serve-mixed's loop-side scheduling,
#: milestone hand-off and ``wait`` wake-ups sit between its spans.
COVERAGE_FLOOR = {
    "sweep-sim": 0.97,
    "sweep-analytic": 0.97,
    "serve-mixed": 0.75,
    "fleet-drain": 0.97,
}

#: Per-layer time metrics: metric -> spans whose self time it sums.
SELF_TIME = {
    "scenario.decode_ms": ("scenario.decode",),
    "scenario.canonical_ms": ("scenario.canonical",),
    "sweep.run_key_ms": ("sweep.run_key",),
    "analysis.analyze_ms": ("analysis.fast_path", "analysis.analyze"),
    "analysis.synthesize_ms": ("analysis.synthesize",),
    "harness.prepare_ms": ("harness.prepare",),
    "paths.longest_ms": ("paths.longest",),
    "sched.dispatch_ms": ("sched.dispatch",),
    "sched.step_ms": ("sched.step",),
    "ledger.append_ms": ("ledger.append",),
    "ledger.encode_ms": ("ledger.encode",),
    "crypto.sign_ms": ("crypto.sign",),
    "crypto.verify_ms": ("crypto.verify",),
    "report.encode_ms": ("report.encode",),
    "report.decode_ms": ("report.decode",),
    "store.put_ms": ("store.put",),
    "store.flush_ms": ("store.flush",),
    "store.get_ms": ("store.get",),
    "serve.admit_ms": ("serve.admit",),
    "fleet.claim_ms": ("fleet.claim",),
    "fleet.heartbeat_ms": ("fleet.heartbeat",),
    "fleet.commit_ms": ("fleet.commit",),
}
#: Per-layer call counts: metric -> span whose calls it counts.
CALLS = {
    "analysis.synthesized": "analysis.synthesize",
    "paths.longest_calls": "paths.longest",
    "sched.steps": "sched.step",
    "crypto.verifies": "crypto.verify",
}
#: Counters the tracer's exit hooks keep.
COUNTERS = {
    "sched.events": "sched.events",
    "ledger.records": "ledger.records",
    "ledger.bytes": "ledger.bytes",
}
#: Figures the program reports itself, per scenario.
REPORTED = {
    "serve.tier.cached": "serve.tier.cached",
    "serve.tier.analytic": "serve.tier.analytic",
    "serve.tier.accepted": "serve.tier.accepted",
    "fleet.idle_waits": "fleet.idle_waits",
    "fleet.leases_lost": "fleet.leases_lost",
}


@dataclass
class Sample:
    """One measured round, times scaled to the reference speed."""

    wall: float
    resolved: int
    latencies: list[float]
    scale: float
    """``REFERENCE_S`` / the reference loop's time around this round."""


def reference_seconds() -> float:
    """Time one fixed pure-Python loop (dict updates and a string sort).

    The machine's speed drifts by a third within seconds (shared cores,
    frequency changes), and the program's round times drift with it.
    Timing this loop right before and after each timed call measures the
    drift, and dividing it out keeps the figures steady.
    """
    begun = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(60000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    sorted(str(i) for i in range(20000))
    return time.perf_counter() - begun


class Guard:
    """Records a problem when a timed phase runs more threads than
    ``os.cpu_count()`` or starts a child process."""

    def __init__(self) -> None:
        self.cores = os.cpu_count() or 1
        self.problems: list[str] = []

    def check(self, where: str) -> None:
        threads = threading.active_count()
        if threads > self.cores:
            self.problems.append(f"{where}: {threads} threads on {self.cores} cores")
        children = _children()
        if children:
            self.problems.append(f"{where}: child processes {children}")

    @contextmanager
    def timed_phase(self, where: str) -> Iterator[None]:
        """Check on entry and exit, and at every thread or process start
        in between (a pool started and joined inside the call is caught)."""
        thread_start = threading.Thread.start
        process_start = multiprocessing.process.BaseProcess.start
        popen_init = subprocess.Popen.__init__
        guard = self

        def start_thread(thread: threading.Thread, *args: Any, **kwargs: Any) -> None:
            thread_start(thread, *args, **kwargs)
            guard.check(f"{where}: thread {thread.name} started")

        def start_process(process: Any, *args: Any, **kwargs: Any) -> None:
            guard.problems.append(f"{where}: process {process.name} started")
            process_start(process, *args, **kwargs)

        def start_popen(popen: Any, *args: Any, **kwargs: Any) -> None:
            guard.problems.append(f"{where}: subprocess {args[:1]} started")
            popen_init(popen, *args, **kwargs)

        self.check(f"{where} start")
        threading.Thread.start = start_thread  # type: ignore[method-assign]
        multiprocessing.process.BaseProcess.start = start_process  # type: ignore[method-assign]
        subprocess.Popen.__init__ = start_popen  # type: ignore[method-assign]
        try:
            yield
        finally:
            threading.Thread.start = thread_start  # type: ignore[method-assign]
            multiprocessing.process.BaseProcess.start = process_start  # type: ignore[method-assign]
            subprocess.Popen.__init__ = popen_init  # type: ignore[method-assign]
        self.check(f"{where} end")


def _children() -> list[str]:
    """PIDs of this process's children (``/proc`` on Linux; elsewhere
    the ``multiprocessing`` ones)."""
    try:
        return [
            pid
            for task in os.listdir("/proc/self/task")
            for pid in Path(f"/proc/self/task/{task}/children").read_text().split()
        ]
    except OSError:
        return [str(child.pid) for child in multiprocessing.active_children()]


def _percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _digest(results: list[tuple[Any, str, dict]], comparable: Any) -> str:
    """sha256 over sorted ``(run key, comparable report bytes)``."""
    digest = hashlib.sha256()
    for key, body in sorted((key, comparable(report)) for _, key, report in results):
        digest.update(key.encode() + b"\0" + body + b"\n")
    return digest.hexdigest()


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import repro
    from repro.api.sweep import run_key

    from perfbench import tracing, workloads

    if Path(repro.__file__).resolve() != (src / "repro" / "__init__.py").resolve():
        print(f"perfbench: imported {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    import_s = time.perf_counter() - STARTED
    import_s *= REFERENCE_S / statistics.median(reference_seconds() for _ in range(3))

    workload = workloads.make(args.workload, WORKDIR)
    if getattr(workload, "one_core", False) and hasattr(os, "sched_setaffinity"):
        # Set before the workload starts any thread; threads inherit it.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    guard = Guard()
    if hasattr(workload, "guard"):
        workload.guard = guard.check
    tracer = tracing.Tracer() if args.trace else None
    setups: list[float] = []
    untraced: list[Sample] = []
    traced: list[Sample] = []
    problems: list[str] = []
    attempted = failed = 0
    covered = traced_wall = 0.0
    layers: dict[str, float] = {}
    digest = ""
    measuring_since = 0.0
    index = 0
    while index <= MIN_MEASURED * (2 if tracer else 1) or (
        time.perf_counter() - measuring_since < args.seconds
    ):
        trace_round = tracer is not None and index > 0 and index % 2 == 0
        begun = time.perf_counter()
        rnd = workload.prepare(args.seed, index)
        setup = time.perf_counter() - begun
        try:
            if trace_round:
                tracer.keys_by_name = {s.name: run_key(e, s) for e, s in rnd.items}
                tracing.install(tracer)
                tracer.take_tops()
            gc.collect()
            reference = reference_seconds()
            try:
                with guard.timed_phase(workload.name):
                    begun = time.perf_counter()
                    result = workload.run(rnd)
                    ended = time.perf_counter()
            finally:
                if trace_round:
                    tracer.uninstall()
            scale = 2 * REFERENCE_S / (reference + reference_seconds())
            setups.append(setup * scale)
            if trace_round:
                covered += tracing.union_seconds(tracer.take_tops(), begun, ended)
                traced_wall += ended - begun
            outcome = workload.summarize(rnd, result)
            problems += [f"round {index}: {p}" for p in workload.check(rnd, outcome)]
        finally:
            workload.close(rnd)
        attempted += outcome.attempted
        failed += outcome.failed
        if index == 0:
            digest = _digest(outcome.results, workloads.comparable)
            measuring_since = time.perf_counter()
        else:
            sample = Sample(
                (ended - begun) * scale,
                outcome.resolved,
                [latency * scale for latency in outcome.latencies],
                scale,
            )
            (traced if trace_round else untraced).append(sample)
            if trace_round:
                for name, value in outcome.layers.items():
                    layers[name] = layers.get(name, 0.0) + value
        index += 1
    problems += guard.problems

    recorded = json.loads(DIGESTS.read_text()).get(args.workload)
    if args.seed == DEFAULT_SEED and digest != recorded:
        problems.append(f"warm-up digest {digest} != recorded {recorded}")

    print(
        f"perfbench: {args.workload} seed={args.seed} trace={args.trace}: "
        f"1 warm-up + {len(untraced)} untraced + {len(traced)} traced rounds "
        f"of {workload.size} scenarios"
    )
    print(
        f"perfbench: failed {failed} of {attempted} attempted "
        f"({100 * failed / attempted:.2f}%)"
    )
    print(f"perfbench: warm-up digest {digest} (seed {args.seed})")
    if tracer is None:
        metrics = _end_to_end(untraced, import_s, setups)
    else:
        coverage = covered / traced_wall
        floor = COVERAGE_FLOOR[args.workload]
        if coverage < floor:
            problems.append(
                f"span coverage {coverage:.3f} of the timed wall is below {floor}"
            )
        metrics = _per_layer(tracer.merged(), traced, untraced, layers, coverage)
        _write_trace(tracer.merged(), args)
    for problem in problems[:20]:
        print(f"perfbench: PROBLEM {problem}")
    if len(problems) > 20:
        print(f"perfbench: ... and {len(problems) - 20} more problems")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not problems else 1


def _end_to_end(
    samples: list[Sample], import_s: float, setups: list[float]
) -> dict[str, dict[str, Any]]:
    """The untraced metrics: throughput, latency, set-up, memory."""
    latencies = [latency for s in samples for latency in s.latencies]
    if latencies:
        print(f"perfbench: latency over {len(latencies)} submissions")
    else:
        # Batch workloads: the user waits on the whole batch.
        latencies = [s.wall for s in samples]
        print(f"perfbench: latency over {len(latencies)} batches (one per round)")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "throughput_sps": (statistics.median(s.resolved / s.wall for s in samples), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_p95_ms": (_percentile(latencies, 95) * 1000, "ms"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(
        f"perfbench: setup = import {import_s:.4f}s + median round set-up "
        f"{statistics.median(setups):.4f}s over {len(setups)} rounds"
    )
    print(
        f"perfbench: times scaled to a {REFERENCE_S}s reference loop; median scale "
        f"{statistics.median(s.scale for s in samples):.4f}; unscaled throughput "
        f"{statistics.median(s.resolved * s.scale / s.wall for s in samples):.3f}/s"
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _per_layer(
    merged: dict[str, Any],
    traced: list[Sample],
    untraced: list[Sample],
    layers: dict[str, float],
    coverage: float,
) -> dict[str, dict[str, Any]]:
    """Traced-round layer metrics, normalised per resolved scenario."""
    totals, counters, edges = merged["totals"], merged["counters"], merged["edges"]
    scenarios = sum(s.resolved for s in traced)

    def calls(span: str) -> int:
        return totals.get(span, [0, 0.0, 0.0])[0]

    def ratio(part: float, base: float, name: str) -> float:
        print(f"perfbench: {name} = {part:g} / {base:g}")
        return part / base if base else 0.0

    print(f"perfbench: traced rounds resolved {scenarios} scenarios")
    for span, (count, total, own) in sorted(totals.items(), key=lambda kv: -kv[1][2]):
        print(
            f"perfbench: span {span:<22} calls={count:<8} "
            f"total_ms={total * 1000:<12.3f} self_ms={own * 1000:.3f}"
        )
    values: dict[str, tuple[float, str]] = {}
    for name, spans in SELF_TIME.items():
        own = sum(totals.get(span, [0, 0.0, 0.0])[2] for span in spans)
        values[name] = (own * 1000 / scenarios, "ms/scenario")
    for name, span in CALLS.items():
        values[name] = (calls(span) / scenarios, "1/scenario")
    for name, counter in COUNTERS.items():
        values[name] = (counters.get(counter, 0) / scenarios, "1/scenario")
    for name, figure in REPORTED.items():
        values[name] = (layers.get(figure, 0) / scenarios, "1/scenario")
    fast = calls("analysis.fast_path")
    misses = edges.get(("analysis.fast_path", "analysis.analyze"), 0)
    values["analysis.memo_hit_ratio"] = (
        ratio(fast - misses, fast, "analysis.memo_hit_ratio"), "ratio"
    )
    values["store.hit_ratio"] = (
        ratio(counters.get("store.hits", 0), counters.get("store.gets", 0), "store.hit_ratio"),
        "ratio",
    )
    driven = layers.get("serve.jobs_driven", 0)
    values["serve.queue_wait_ms"] = (
        1000 * layers.get("serve.queue_wait_s", 0.0) / driven if driven else 0.0, "ms/job"
    )
    values["serve.drive_ms"] = (
        1000 * layers.get("serve.drive_s", 0.0) / driven if driven else 0.0, "ms/job"
    )
    values["fleet.enqueue_ms"] = (
        1000 * layers.get("fleet.enqueue_s", 0.0) / scenarios, "ms/scenario"
    )
    per_traced = sum(s.wall for s in traced) / scenarios
    per_untraced = sum(s.wall for s in untraced) / sum(s.resolved for s in untraced)
    values["trace.overhead_pct"] = (100 * (per_traced / per_untraced - 1), "%")
    values["trace.coverage"] = (coverage, "ratio")
    print(
        f"perfbench: traced {per_traced * 1000:.3f} ms/scenario vs untraced "
        f"{per_untraced * 1000:.3f} ms/scenario; spans cover {coverage:.4f} of the traced wall"
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _write_trace(merged: dict[str, Any], args: argparse.Namespace) -> None:
    """Span aggregates, parent->child edges and the raw span sample."""
    path = WORKDIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(
        json.dumps(
            {
                "spans": {
                    span: {"calls": c, "total_s": t, "self_s": s}
                    for span, (c, t, s) in merged["totals"].items()
                },
                "counters": merged["counters"],
                "edges": [
                    {"parent": parent, "child": child, "calls": n}
                    for (parent, child), n in merged["edges"].items()
                ],
                "sample": [
                    dict(zip(("id", "parent", "thread", "span", "start", "seconds",
                              "self_seconds", "run_key"), span))
                    for span in merged["spans"]
                ],
            }
        )
    )
    print(f"perfbench: trace written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
