"""E28 — the analytic fast path: closed-form reports vs simulation.

``repro.analysis.engine`` turns the E22 observation around: for every
scenario the analyzer certifies with ``coverage="full"`` (uniform
timing, no faults, no deviating strategies), the entire ``RunReport``
is computable in closed form — Fig. 3 end states and the §4.1 deadline
ladder from :mod:`repro.analysis.predict`, transcript bytes and the
event census from :mod:`repro.analysis.engine` — and ``resolve_report``
with ``fast_path`` on synthesizes it **byte-identical** to the
``herlihy`` simulation
(same run keys, same ``to_dict()`` output, modulo the ``wall_seconds``
measurement and the ``extra["path"]`` provenance stamp).

This bench measures both halves of the tentpole on the E22 grid:

* **analytic speedup** — per-scenario wall time of the analytic path
  across a seed grid (the shape memo synthesizes once per topology;
  every further seed is a template copy) against fresh simulated runs
  of the same workload, floor-asserted at ``ANALYTIC_SPEEDUP_FLOOR``.
  Both paths are timed in ``ROUNDS`` back-to-back rounds of at least
  ``ROUND_SECONDS`` each; the speedup is the median per-round ratio.
* **simulated speedup** — the residual hot path (scenarios with no
  closed form still simulate) against the frozen per-run baselines in
  ``results/BENCH_E22.json``, floor-asserted at
  ``SIMULATED_SPEEDUP_FLOOR``: the columnar trace buffer
  (:mod:`repro.sim.trace`) and batched same-tick dispatch
  (:mod:`repro.sim.scheduler`) must keep the simulator ahead of the
  recorded E22 numbers.

Byte parity is asserted here on every workload — including the sparse
random graphs whose Phase One publication gates and same-tick route
ties are exactly the regime where a naive closed form diverges from
the scheduler (see ``repro.analysis.predict._replay``).
"""

import json
import statistics
import time
from itertools import count
from pathlib import Path
from random import Random

from _tables import emit_bench_json, emit_table

from repro.analysis.engine import PATH_ANALYTIC, PATH_KEY, resolve_report
from repro.api import Scenario, get_engine
from repro.digraph.generators import complete_digraph, random_strongly_connected

# The E22 grid, verbatim — so the two artifacts stay directly comparable.
WORKLOADS = [
    ("K4", complete_digraph(4), {}),
    ("K6", complete_digraph(6), {}),
    ("K8", complete_digraph(8), {"exact_limit": 8}),
    ("sparse n=10", random_strongly_connected(10, 0.15, Random(1)), {}),
    ("sparse n=15", random_strongly_connected(15, 0.10, Random(2)),
     {"exact_limit": 12}),
    ("sparse n=20", random_strongly_connected(20, 0.08, Random(3)),
     {"exact_limit": 12}),
]

#: Seeds per workload: the steady-state regime the fast path exists for
#: (ROADMAP's million-scenario sweeps are seed grids over few shapes).
SEED_GRID = range(1, 33)

ANALYTIC_SPEEDUP_FLOOR = 100.0
SIMULATED_SPEEDUP_FLOOR = 1.2

#: Timing rounds per workload, and the shortest stretch one round of
#: either path covers, in seconds.
ROUNDS = 5
ROUND_SECONDS = 0.05

E22_BASELINE = Path(__file__).resolve().parent / "results" / "BENCH_E22.json"


def comparable(report):
    """``to_dict()`` minus the two declared non-deterministic fields."""
    data = report.to_dict()
    data.pop("wall_seconds", None)
    (data.get("extra") or {}).pop(PATH_KEY, None)
    return data


def round_ms(work):
    """Wall ms per call of ``work``, repeated until at least
    ``ROUND_SECONDS`` pass (one K4 run takes a few ms, far too short to
    time alone on a shared CPU)."""
    calls = 0
    begin = time.perf_counter()
    while True:
        work()
        calls += 1
        elapsed = time.perf_counter() - begin
        if elapsed >= ROUND_SECONDS:
            return elapsed * 1000 / calls


def e22_baseline_wall_ms():
    """Per-workload wall ms recorded by the E22 bench (label -> ms)."""
    payload = json.loads(E22_BASELINE.read_text())
    return {run["scenario"]: run["wall_ms"] for run in payload["runs"]}


def measure():
    herlihy = get_engine("herlihy")
    rows, agg, sim_reports = [], {}, []
    baseline = e22_baseline_wall_ms()
    sim_speedups = []
    for label, digraph, overrides in WORKLOADS:
        def scn(seed):
            return Scenario(topology=digraph, name=label, seed=seed, **overrides)

        # The first run of a process pays cold import/path-cache costs
        # the E22 baseline, measured mid-sweep, never saw: run it once
        # untimed.  Parity next (also warms the shape memo): the analytic
        # report must be byte-identical to its own simulation.
        simulated = herlihy.run(scn(0))
        assert simulated.all_deal(), label
        sim_reports.append(simulated)
        synthesized = resolve_report("herlihy", scn(0), fast_path=True)
        assert synthesized.extra[PATH_KEY] == PATH_ANALYTIC, label
        assert comparable(synthesized) == comparable(simulated), label

        seeds = count(101)

        def simulate_one():
            assert herlihy.run(scn(next(seeds))).all_deal(), label

        def seed_grid():
            # The steady state: a seed grid over the warmed shape.
            offset = next(seeds) * 1000
            for seed in SEED_GRID:
                report = resolve_report("herlihy", scn(offset + seed), fast_path=True)
                assert report.extra[PATH_KEY] == PATH_ANALYTIC, label

        # Each round times both paths back to back, so the speedup is
        # the median of per-round ratios: a shared CPU's speed drifts
        # over seconds, and a ratio taken across minutes would carry it.
        sim_rounds, fast_rounds = [], []
        for _ in range(ROUNDS):
            sim_rounds.append(round_ms(simulate_one))
            fast_rounds.append(round_ms(seed_grid) / len(SEED_GRID))
        sim_ms, fast_ms = min(sim_rounds), min(fast_rounds)
        speedup = statistics.median(s / f for s, f in zip(sim_rounds, fast_rounds))
        sim_speedup = baseline[label] / sim_ms
        sim_speedups.append(sim_speedup)
        rows.append(
            [
                label,
                len(digraph.vertices),
                digraph.arc_count(),
                f"{sim_ms:.1f}",
                f"{fast_ms:.3f}",
                f"{speedup:.0f}x",
                f"{sim_speedup:.2f}x",
            ]
        )
        agg[label] = {
            "simulated_ms": round(sim_ms, 3),
            "analytic_ms_per_scenario": round(fast_ms, 4),
            "analytic_speedup": round(speedup, 1),
            "simulated_speedup_vs_e22": round(sim_speedup, 2),
        }
        assert speedup >= ANALYTIC_SPEEDUP_FLOOR, (
            f"{label}: analytic path {speedup:.0f}x < "
            f"{ANALYTIC_SPEEDUP_FLOOR:.0f}x floor"
        )
    # The residual-path floor is asserted on the median so one noisy
    # workload cannot flake the bench; per-workload ratios are emitted.
    median_sim = statistics.median(sim_speedups)
    assert median_sim >= SIMULATED_SPEEDUP_FLOOR, (
        f"median simulated-path speedup {median_sim:.2f}x vs the E22 "
        f"baseline is under the {SIMULATED_SPEEDUP_FLOOR}x floor"
    )
    agg["median_simulated_speedup_vs_e22"] = round(median_sim, 2)
    agg["seeds_per_workload"] = len(SEED_GRID)
    return rows, agg, sim_reports


def test_analytic_fast_path(benchmark):
    rows, agg, sim_reports = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit_table(
        "E28",
        "Analytic fast path: closed-form reports vs simulation "
        f"({len(SEED_GRID)} seeds/workload, floors "
        f"{ANALYTIC_SPEEDUP_FLOOR:.0f}x analytic / "
        f"{SIMULATED_SPEEDUP_FLOOR}x simulated)",
        ["workload", "|V|", "|A|", "sim ms", "analytic ms/scn",
         "speedup", "sim vs E22"],
        rows,
        notes=(
            "Every analytic report asserted byte-identical to its own "
            "herlihy simulation before timing (same run keys, same "
            "to_dict() bytes).  'analytic ms/scn' amortizes a seed grid "
            "over one warmed shape — the fast path's steady state.  "
            "'sim ms' and 'analytic ms/scn' are the fastest of five "
            "rounds of at least 50 ms; 'speedup' is the median ratio of "
            "rounds timed back to back.  "
            "'sim vs E22' compares a fresh simulated run against the "
            "frozen BENCH_E22.json wall times: the columnar trace "
            "buffer and batched same-tick dispatch must keep the "
            "residual simulated path ahead of that baseline."
        ),
    )
    emit_bench_json("E28", sim_reports, aggregates=agg)
