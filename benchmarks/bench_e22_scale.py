"""E22 — scale characterization (beyond the paper's figures).

How the simulation itself scales: end-to-end wall clock, scheduler events,
and on-chain bytes as swap size grows, for both the dense (complete) and
sparse (cycle + chords) regimes.  Also exercises the |V|-1 diameter
fallback on a 20-party swap — the path production deployments of the
protocol would actually take, since exact longest-path is NP-hard.

The whole grid executes as one :func:`repro.api.run_sweep` call with
process-pool fan-out, recorded through the :mod:`repro.lab` bench store —
a warm re-run of this bench serves every scenario from
``results/bench_runs.sqlite`` and executes zero engines.  The table is
read off the resulting :class:`~repro.api.SweepReport`.
"""

from random import Random

from _tables import bench_store, emit_bench_json, emit_table

from repro.api import Scenario, Sweep, get_engine, run_sweep
from repro.digraph.generators import complete_digraph, random_strongly_connected

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


def sweep():
    batch = Sweep("e22-scale")
    for label, digraph, overrides in WORKLOADS:
        batch.add(
            "herlihy", Scenario(topology=digraph, name=label, **overrides)
        )
    with bench_store() as store:
        report = run_sweep(batch, parallel=True, store=store)

    rows = []
    for run in report.reports:
        assert run.all_deal(), run.scenario.name
        digraph = run.scenario.topology
        rows.append(
            [
                run.scenario.name,
                len(digraph.vertices),
                digraph.arc_count(),
                len(run.leaders),
                run.events_fired,
                run.stored_bytes,
                f"{run.wall_seconds * 1000:.0f}",
            ]
        )
    return rows, report


def test_scale_sweep(benchmark):
    rows, report = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "E22",
        "Scale characterization: simulation cost vs swap size "
        f"(one run_sweep call, {report.mode}, {report.workers} worker(s))",
        ["workload", "|V|", "|A|", "|L|", "events", "stored bytes", "wall ms"],
        rows,
        notes=(
            "All sizes end all-Deal, including the 20-party swap running "
            "on the |V|-1 diameter fallback.  Event counts track "
            "|A|·|L| (the unlock traffic), matching E10.  The grid runs "
            "as one repro.api sweep: per-row wall times are measured "
            "inside the engine, so they are comparable across workers."
        ),
    )
    assert len(report) == len(WORKLOADS)
    assert all(int(row[6]) < 30_000 for row in rows)

    emit_bench_json(
        "E22",
        report.reports,
        aggregates={
            "mode": report.mode,
            "executed": report.executed,
            "cached": report.cached,
            "sweep_wall_ms": round(report.wall_seconds * 1000, 1),
        },
    )


def run_k8():
    return get_engine("herlihy").run(
        Scenario(topology=complete_digraph(8), name="K8", exact_limit=8)
    )


def test_k8_wall_clock(benchmark):
    report = benchmark.pedantic(run_k8, rounds=2, iterations=1)
    assert report.all_deal()
