"""Table and artifact emission for the reproduction benchmarks.

Every bench regenerates one of the paper's figures/claims as a plain-text
table.  Tables are printed (visible with ``pytest -s``) and also written to
``benchmarks/results/<exp_id>.txt`` so EXPERIMENTS.md can reference stable
artifacts.  Formatting comes from the shared :mod:`repro.lab.analytics`
emitter (``src`` must be importable), so benches, the lab CLI, and
ad-hoc scripts all render the same table shape.

Benches additionally record their runs through the :mod:`repro.lab`
content-addressed store (``benchmarks/results/bench_runs.sqlite``) and
emit machine-readable ``benchmarks/results/BENCH_<exp_id>.json`` files —
:func:`emit_bench_json` — giving the performance trajectory a stable,
parseable shape.  Because the store is content-addressed, re-running a
bench only records runs it has not seen before.
"""

from __future__ import annotations

import json
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent / "results"
BENCH_STORE_PATH = RESULTS_DIR / "bench_runs.sqlite"


def format_table(title: str, headers: list[str], rows: list[list[object]]) -> str:
    """Render an aligned ASCII table (the shared repro.lab emitter)."""
    from repro.lab.analytics import format_table as _format_table

    return _format_table(title, headers, rows)


def emit_table(
    exp_id: str, title: str, headers: list[str], rows: list[list[object]],
    notes: str = "",
) -> str:
    """Format, print, and persist one experiment's table."""
    text = format_table(f"[{exp_id}] {title}", headers, rows)
    if notes:
        text += "\n\n" + notes.strip()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{exp_id}.txt").write_text(text + "\n")
    print("\n" + text + "\n")
    return text


def delta_units(ticks: int | None, delta: int) -> str:
    """Render a tick count as Δ-multiples (the paper's unit)."""
    if ticks is None:
        return "-"
    return f"{ticks / delta:.2f}Δ"


def bench_store():
    """The shared content-addressed store benches record through."""
    from repro.lab.store import SqliteStore

    return SqliteStore(BENCH_STORE_PATH)


def emit_bench_json(
    exp_id: str,
    reports,
    aggregates: dict | None = None,
    store=None,
) -> dict:
    """Record ``reports`` in the bench store and write ``BENCH_<id>.json``.

    ``reports`` is a list of :class:`repro.api.RunReport`.  Each run is
    keyed by :func:`repro.api.sweep.run_key`; runs the store already
    holds are not re-recorded (wall times of first measurement win).
    The JSON artifact carries one row per run — key, engine, scenario,
    verdicts, model time, byte/event metrics, wall ms — plus any
    bench-specific ``aggregates``.
    """
    from repro.api.sweep import run_key

    own_store = store is None
    if own_store:
        store = bench_store()
    try:
        runs = []
        for report in reports:
            key = run_key(report.engine, report.scenario)
            if store.get(key) is None:
                store.put(key, {"ok": True, "report": report.to_dict()})
            runs.append(
                {
                    "key": key,
                    "engine": report.engine,
                    "scenario": report.scenario.label(),
                    "all_deal": report.all_deal(),
                    "thm49_safe": report.conforming_acceptable(),
                    "completion_time": report.completion_time,
                    "phase_two_bound": report.phase_two_bound,
                    "events_fired": report.events_fired,
                    "stored_bytes": report.stored_bytes,
                    "published_bytes": report.published_bytes,
                    "unlock_calls": report.unlock_calls,
                    "wall_ms": round(report.wall_seconds * 1000, 3),
                }
            )
    finally:
        if own_store:
            store.close()
    payload = {"exp": exp_id, "store": BENCH_STORE_PATH.name, "runs": runs}
    if aggregates:
        payload["aggregates"] = aggregates
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"BENCH_{exp_id}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return payload
