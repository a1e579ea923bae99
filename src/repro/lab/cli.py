"""The ``python -m repro lab`` command line.

Subcommands::

    lab run       expand a workload (preset or --family) and execute it
                  through the content-addressed store; warm re-runs
                  execute zero engines; --fast-path answers fully-
                  covered scenarios from the closed-form analytic
                  engine without simulating; --fleet N drains the
                  workload with N local worker processes coordinated
                  by the claim/lease protocol (repro.fleet) instead of
                  the in-process pool
    lab work      run one fleet worker loop against a shared SQLite
                  store: claim a chunk, execute it (fast path
                  honoured), heartbeat, commit atomically; exits when
                  the queue drains.  Refuses :memory: stores (one
                  connection per process) and JSON-lines paths
    lab fleet     inspect fleet coordination state (`fleet status`:
                  chunk claim/lease table, worker heartbeat ages;
                  --json for the machine-readable snapshot)
    lab check     statically verify workloads without executing them:
                  structural diagnostics + closed-form predictions
                  (repro.analysis.protocol); --verify cross-checks
                  predictions against reports — reusing stored reports
                  when the store already holds them, executing only the
                  residue (--fast-path synthesizes full-coverage
                  residue closed-form)
    lab bisect    binary-search a timing knob (stragglers `violation`)
                  per topology family to the all-Deal boundary
    lab ls        list stored runs (key, engine, scenario, verdict)
    lab show      print one stored run by key prefix (--json for raw)
    lab diff      field-by-field comparison of two stored runs
    lab stats     cross-sweep aggregates (rates, percentiles, failure
                  taxonomy) grouped by engine/family/mix/timing/path
    lab merge     absorb shard stores and *.jsonl files (newest wins)
    lab export    write the store's runs to a *.jsonl file for merge
    lab families  the registered topology families and their params
    lab mixes     the registered adversary mixes
    lab timings   the registered timing profiles
    lab presets   the bundled workload presets

Examples::

    python -m repro lab run --preset smoke
    python -m repro lab run --family erdos-renyi --grid n=6,8 p=0.2 \\
        --mix all-conforming --mix phase-crash --engine herlihy
    python -m repro lab run --preset smoke --timing jittered
    python -m repro lab check                      # every family, statically
    python -m repro lab check --family wheel --grid rim=4,6 --verify
    python -m repro lab check --preset topologies --json
    python -m repro lab bisect --knob violation --family cycle --family clique
    python -m repro lab bisect --family wheel --timing-kind adaptive-stragglers
    python -m repro lab ls
    python -m repro lab show 3f2a
    python -m repro lab diff 3f2a 9c41
    python -m repro lab run --preset smoke --fast-path
    python -m repro lab check --verify --fast-path
    python -m repro lab stats --by engine,mix
    python -m repro lab stats --by timing
    python -m repro lab stats --by path          # analytic vs simulated
    python -m repro lab stats --by verdict         # predicted vs observed
    python -m repro lab stats --compare herlihy naive-timelock --json
    python -m repro lab merge all.sqlite shard1.jsonl shard2.sqlite
    python -m repro lab export shard1.jsonl --store shard1.sqlite
    python -m repro lab run --preset smoke --fleet 4 --store fleet.sqlite
    python -m repro lab work --store fleet.sqlite --lease-ttl 10
    python -m repro lab fleet status --store fleet.sqlite --json

The store defaults to ``.lab/runs.sqlite`` under the current directory;
``--store`` takes a SQLite path or ``:memory:``; ``*.jsonl`` files are
not stores, only ``lab export``/``lab merge`` interchange.
Errors go to stderr with exit status 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.api.report import RunReport
from repro.api.sweep import run_key, run_sweep
from repro.errors import LabError, ReproError
from repro.lab.analytics import (
    aggregate,
    check_dimensions,
    collect_facts,
    compare,
    compare_table,
    format_rows,
    stats_payload,
    stats_table,
)
from repro.lab.registry import (
    get_family,
    get_mix,
    get_preset,
    get_timing,
    list_families,
    list_mixes,
    list_presets,
    list_timings,
)
from repro.lab.store import (
    _JSONL_SUFFIXES,
    Record,
    SqliteStore,
    _entry_identity,
    open_store,
    read_jsonl,
    write_jsonl,
)
from repro.lab.workloads import Workload, build_sweep

DEFAULT_STORE = ".lab/runs.sqlite"


def _parse_grid(pairs: Sequence[str]) -> dict[str, Any]:
    """``["n=3,5", "p=0.2"]`` → ``{"n": [3, 5], "p": 0.2}``."""
    grid: dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise LabError(f"--grid expects key=value, got {pair!r}")
        values = [_parse_atom(v) for v in raw.split(",") if v != ""]
        if not values:
            raise LabError(f"--grid {key} has no values")
        grid[key] = values if len(values) > 1 else values[0]
    return grid


def _parse_atom(text: str) -> Any:
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


# One table emitter for the whole repo (CLI, benches, scripts).
_format_rows = format_rows


def _open_existing(path: str) -> SqliteStore:
    """Open a store that must already exist.

    Read-only subcommands go through this instead of
    :func:`open_store`, which would silently create an empty store for
    a typo'd path — a false "empty" answer plus a junk file on disk.
    """
    if str(path) != ":memory:" and not Path(path).exists():
        raise LabError(f"no such store: {path}")
    return open_store(path)


def _resolve_key(store: SqliteStore, prefix: str) -> str:
    matches = store.find(prefix)
    if not matches:
        raise LabError(f"no stored run matches key prefix {prefix!r}")
    if len(matches) > 1:
        shown = ", ".join(k[:12] for k in matches[:8])
        raise LabError(
            f"key prefix {prefix!r} is ambiguous ({len(matches)} matches: "
            f"{shown}{', ...' if len(matches) > 8 else ''})"
        )
    return matches[0]


def _entry_row(key: str, entry: dict) -> list[object]:
    engine, name = _entry_identity(entry)
    if entry.get("ok"):
        report = RunReport.from_dict(entry["report"])
        verdict = "all-Deal" if report.all_deal() else (
            "safe" if report.conforming_acceptable() else "UNSAFE"
        )
        completion = report.completion_time
    else:
        verdict = f"error:{entry.get('error_type')}"
        completion = None
    return [
        key[:12], engine, name or "-", verdict,
        "-" if completion is None else completion,
    ]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    if args.preset:
        workloads = list(get_preset(args.preset))
        title = f"preset:{args.preset}"
    elif args.family:
        workloads = [
            Workload(
                args.family,
                _parse_grid(args.grid),
                mixes=tuple(args.mix) if args.mix else ("all-conforming",),
                engines=tuple(args.engine) if args.engine else ("herlihy",),
            )
        ]
        title = f"family:{args.family}"
    else:
        raise LabError("lab run needs --preset or --family")
    if args.timing:
        # Like --seed, --timing replaces every workload's timing axis
        # (names validated up front so typos fail before any engine runs).
        for name in args.timing:
            get_timing(name)
        workloads = [
            replace(w, timings=tuple(args.timing)) for w in workloads
        ]
    # --seed replaces every workload's seed; unset keeps their defaults.
    sweep = build_sweep(workloads, name=title, base_seed=args.seed)
    if args.fleet:
        return _run_fleet_drain(args, sweep)
    progress = _progress_printer() if args.progress else None
    if args.no_store:
        report = run_sweep(
            sweep, parallel=not args.serial, max_workers=args.workers,
            progress=progress, fast_path=args.fast_path,
        )
        print(report.summary())
        print(f"store: disabled (--no-store) — executed {report.executed}")
        return 0
    with open_store(args.store) as store:
        report = run_sweep(
            sweep,
            parallel=not args.serial,
            max_workers=args.workers,
            store=store,
            progress=progress,
            fast_path=args.fast_path,
        )
        total = len(store)
    print(report.summary())
    print(
        f"store: {args.store} — executed {report.executed}, "
        f"cached {report.cached}, analytic {report.analytic}, "
        f"{total} run(s) stored"
    )
    return 0


def _run_fleet_drain(args: argparse.Namespace, sweep) -> int:
    """``lab run --fleet N``: drain the sweep with N worker processes.

    The claim/lease coordination lives in the SQLite store itself (see
    :mod:`repro.fleet`), so the drained store is byte-identical to what
    a serial ``lab run`` against the same store would hold — ``lab
    stats``/``lab merge`` work on it unchanged.
    """
    from repro.fleet import FleetConfig, run_fleet

    if args.no_store:
        raise LabError(
            "--fleet coordinates workers through the store; "
            "it cannot be combined with --no-store"
        )
    config = FleetConfig(
        lease_ttl=args.lease_ttl,
        skew_grace=args.skew_grace,
        chunk_size=args.chunk_size,
    )
    fleet_report = run_fleet(
        sweep,
        args.store,
        workers=args.fleet,
        config=config,
        fast_path=args.fast_path,
    )
    receipt = fleet_report.receipt
    counts = fleet_report.status.get("counts", {})
    print(
        f"fleet: {args.fleet} worker(s) drained {receipt.enqueued} run(s) "
        f"in {fleet_report.wall_seconds:.2f}s "
        f"(warm {receipt.warm}, already queued {receipt.queued})"
    )
    print(
        f"store: {args.store} — {counts.get('done', 0)} chunk(s) done, "
        f"{counts.get('items_done', 0)} item(s) recorded; "
        f"inspect with `lab stats --store {args.store}`"
    )
    return 0


def _cmd_work(args: argparse.Namespace) -> int:
    """One worker loop: claim → execute → heartbeat → commit, until
    the shared queue drains.  This is what ``--fleet`` spawns N of."""
    from repro.fleet import FleetConfig, FleetWorker, ensure_fleet_path

    # ensure_fleet_path refuses JSONL/:memory: *before* the existence
    # check so the unsafe-backend error names the real problem.
    resolved = ensure_fleet_path(args.store)
    if not resolved.exists():
        raise LabError(
            f"no such fleet store: {args.store} (the driver — `lab run "
            "--fleet` — creates and fills it before workers start)"
        )
    config = FleetConfig(
        lease_ttl=args.lease_ttl,
        skew_grace=args.skew_grace,
        chunk_size=args.chunk_size,
    )
    with FleetWorker(
        resolved,
        config=config,
        worker_id=args.worker_id,
        fast_path=args.fast_path,
    ) as worker:
        stats = worker.run(max_chunks=args.max_chunks)
    if args.json:
        print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
        return 0
    print(
        f"worker {stats.worker_id}: {stats.chunks_committed} chunk(s), "
        f"{stats.items_committed} item(s) committed in "
        f"{stats.wall_seconds:.2f}s (claims {stats.claims}, leases lost "
        f"{stats.leases_lost}, idle waits {stats.idle_waits})"
    )
    return 0


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    from repro.fleet import FleetCoordinator, ensure_fleet_path

    resolved = ensure_fleet_path(args.store)
    if not resolved.exists():
        raise LabError(f"no such store: {args.store}")
    with FleetCoordinator(resolved) as coordinator:
        status = coordinator.status()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    counts = status["counts"]
    print(f"store: {status['store']}")
    print(
        f"chunks: {counts['pending']} pending, {counts['leased']} leased, "
        f"{counts['done']} done — items {counts['items_done']}/"
        f"{counts['items_queued']}"
    )
    if status["chunks"]:
        print(_format_rows(
            ["chunk", "seq", "size", "state", "owner", "attempts", "lease"],
            [
                [
                    chunk["chunk_id"][:12],
                    chunk["seq"],
                    chunk["size"],
                    chunk["state"],
                    chunk["owner"] or "-",
                    chunk["attempts"],
                    "-" if chunk["lease_expires_in"] is None
                    else f"{chunk['lease_expires_in']:+.1f}s",
                ]
                for chunk in status["chunks"]
            ],
        ))
    if status["workers"]:
        print(_format_rows(
            ["worker", "seen", "chunks", "items"],
            [
                [
                    worker["worker_id"],
                    f"{worker['seen_age']:.1f}s ago",
                    worker["chunks_done"],
                    worker["items_done"],
                ]
                for worker in status["workers"]
            ],
        ))
    return 0


def _progress_printer():
    """A ``run_sweep(progress=...)`` callback printing one line per tick."""

    def show(tick) -> None:
        milestones = ",".join(
            f"{kind.split('-')[0]}={count}"
            for kind, count in sorted(tick.milestones.items())
        )
        note = f" [{milestones}]" if milestones else ""
        if tick.fresh:
            print(f"  {tick.completed}/{tick.total} (+{tick.fresh}){note}")
        else:
            print(f"  {tick.completed}/{tick.total} ({tick.cached} cached)")

    return show


def _check_workloads(args: argparse.Namespace) -> list[Workload]:
    """The workloads ``lab check`` analyzes (default: every family)."""
    if args.preset:
        return list(get_preset(args.preset))
    if args.family:
        return [
            Workload(
                args.family,
                _parse_grid(args.grid),
                mixes=tuple(args.mix) if args.mix else ("all-conforming",),
                engines=tuple(args.engine) if args.engine else ("herlihy",),
            )
        ]
    return [
        Workload(name, dict(get_family(name).defaults))
        for name in list_families()
    ]


def _verify_prediction(
    engine: str,
    scenario,
    analysis,
    stored: dict | None = None,
    fast_path: bool = False,
) -> tuple[str, list[str], str]:
    """Execute ``scenario`` and compare the report to the static analysis.

    Returns ``(status, mismatches, source)`` with status ``"ok"``,
    ``"skip"`` (coverage none on a valid scenario — nothing checkable),
    or ``"FAIL"``.  Full-coverage predictions must byte-match the
    report; verdict-only coverage checks the end state; invalid
    scenarios must be refused by the engine (the analyzer and the
    engines agree on what is runnable).

    ``stored`` is this run's already-recorded store entry, when one
    exists under the same run key: a successful entry's report is
    cross-checked as-is instead of re-executing the engine, and a
    failure entry *is* the refusal an invalid scenario demands.
    Otherwise the report comes from
    :func:`~repro.analysis.engine.resolve_report`, so ``fast_path``
    answers full-coverage residue in closed form and simulates whatever
    the closed form refuses, as every other front end does.  ``source``
    says which route produced the evidence: ``stored``, ``analytic``,
    ``executed``, or ``-`` (nothing ran).
    """
    from repro.analysis.engine import PATH_ANALYTIC, PATH_KEY, resolve_report
    from repro.analysis.protocol import (
        COVERAGE_FULL,
        COVERAGE_VERDICT,
        VERDICT_INVALID,
    )
    from repro.api.engine import get_engine

    if analysis.verdict == VERDICT_INVALID:
        if stored is not None and not stored.get("ok"):
            return "ok", [], "stored"
        try:
            get_engine(engine).run(scenario)
        except ReproError:
            return "ok", [], "executed"
        return "FAIL", ["engine ran a scenario the analyzer called invalid"], "executed"
    if analysis.coverage not in (COVERAGE_VERDICT, COVERAGE_FULL):
        return "skip", [], "-"
    if stored is not None and stored.get("ok"):
        report = RunReport.from_dict(stored["report"])
        source = "stored"
    else:
        report = resolve_report(engine, scenario, fast_path)
        analytic = fast_path and report.extra.get(PATH_KEY) == PATH_ANALYTIC
        source = "analytic" if analytic else "executed"
    if analysis.coverage == COVERAGE_VERDICT:
        if report.all_deal():
            return (
                "FAIL",
                ["predicted not-all-deal but every party ended Deal"],
                source,
            )
        return "ok", [], source
    prediction = analysis.prediction
    checks: list[tuple[str, object, object]] = [
        ("leaders", prediction.leaders, tuple(report.leaders)),
        ("completion_time", prediction.completion_time, report.completion_time),
        ("phase_two_bound", prediction.phase_two_bound, report.phase_two_bound),
        ("unlock_calls", prediction.unlock_calls, report.unlock_calls),
        (
            "contract_storage_bytes",
            prediction.contract_storage_bytes,
            report.contract_storage_bytes,
        ),
        ("all_deal", True, report.all_deal()),
    ]
    # A stored report dict carries no raw milestone stream; its counts
    # were recorded beside the report (and pre-session entries recorded
    # neither — nothing to compare for them).
    observed_milestones = (
        stored.get("milestones")
        if source == "stored" and stored is not None
        else report.milestone_counts()
    )
    if observed_milestones is not None:
        checks.append(
            ("milestone_counts", prediction.milestone_counts, dict(observed_milestones))
        )
    mismatches = [
        f"{field}: predicted {predicted!r}, observed {observed!r}"
        for field, predicted, observed in checks
        if predicted != observed
    ]
    return ("FAIL", mismatches, source) if mismatches else ("ok", [], source)


def _check_store(args: argparse.Namespace) -> SqliteStore | None:
    """The store ``lab check --verify`` reuses reports from, or ``None``.

    A missing *default* store just means a cold verify (check must work
    in a fresh tree); an explicitly named store that does not exist is a
    typo and errors like every read-only subcommand.  ``:memory:`` is
    always empty, so it degrades to cold too.
    """
    if args.store == ":memory:":
        return None
    if not Path(args.store).exists():
        if args.store != DEFAULT_STORE:
            raise LabError(f"no such store: {args.store}")
        return None
    return open_store(args.store)


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis.protocol import analyze_scenario

    workloads = _check_workloads(args)
    if args.timing:
        for name in args.timing:
            get_timing(name)
        workloads = [replace(w, timings=tuple(args.timing)) for w in workloads]
    sweep = build_sweep(workloads, name="check", base_seed=args.seed)
    rows: list[list[object]] = []
    payload: list[dict[str, Any]] = []
    errors = 0
    failed: list[tuple[str, list[str]]] = []
    sources: dict[str, int] = {}
    store = _check_store(args) if args.verify else None
    try:
        for engine, scenario in sweep.items():
            analysis = analyze_scenario(scenario, engine=engine)
            if not analysis.ok():
                errors += 1
            status, mismatches, source = ("-", [], "-")
            if args.verify:
                stored = (
                    store.get(run_key(engine, scenario))
                    if store is not None
                    else None
                )
                status, mismatches, source = _verify_prediction(
                    engine, scenario, analysis,
                    stored=stored, fast_path=args.fast_path,
                )
                if source != "-":
                    sources[source] = sources.get(source, 0) + 1
                if status == "FAIL":
                    failed.append((scenario.label(), mismatches))
            prediction = analysis.prediction
            if args.json:
                entry: dict[str, Any] = {
                    "engine": engine,
                    "scenario": scenario.label(),
                    "analysis": analysis.to_dict(),
                }
                if args.verify:
                    entry["verify"] = {
                        "status": status,
                        "mismatches": mismatches,
                        "source": source,
                    }
                payload.append(entry)
                continue
            rows.append(
                [
                    scenario.label(),
                    engine,
                    analysis.coverage,
                    analysis.verdict,
                    "-" if prediction is None else prediction.completion_time,
                    "-"
                    if prediction is None
                    else f"{prediction.completion_in_delta():g}Δ",
                    len(analysis.diagnostics),
                    *([status] if args.verify else []),
                ]
            )
    finally:
        if store is not None:
            store.close()
    if args.json:
        print(json.dumps({"checks": payload}, indent=2, sort_keys=True))
    else:
        headers = [
            "scenario", "engine", "coverage", "verdict", "t(pred)",
            "span/Δ", "diags",
        ]
        if args.verify:
            headers.append("verify")
        print(_format_rows(headers, rows))
        checked = len(rows)
        note = f"{checked} scenario(s) checked, {errors} with errors"
        if args.verify:
            note += f", {len(failed)} prediction failure(s)"
            detail = ", ".join(
                f"{count} {source}" for source, count in sorted(sources.items())
            )
            if detail:
                note += f" ({detail})"
        print(note)
        for label, mismatches in failed:
            for mismatch in mismatches:
                print(f"  FAIL {label}: {mismatch}", file=sys.stderr)
    if failed:
        return 1
    if args.strict and errors:
        return 1
    return 0


#: Families `lab bisect` maps when none are named: small, strongly
#: connected, and spanning one-leader / max-leader / two-leader shapes.
_DEFAULT_BISECT_FAMILIES = ("cycle", "clique", "wheel")


def _cmd_bisect(args: argparse.Namespace) -> int:
    from repro.lab.bisect import bisect_all_deal_boundary

    families = tuple(args.family) if args.family else _DEFAULT_BISECT_FAMILIES
    grid = _parse_grid(args.grid)
    swept = [k for k, v in grid.items() if isinstance(v, list)]
    if swept:
        raise LabError(
            f"lab bisect probes one topology per family; --grid "
            f"{', '.join(swept)} must be single values (the swept knob "
            f"is --knob {args.knob})"
        )
    results = [
        bisect_all_deal_boundary(
            family,
            knob=args.knob,
            engine=args.engine,
            timing_kind=args.timing_kind,
            params=grid or None,
            seeds=tuple(range(args.seeds)),
            lo=args.lo,
            hi=args.hi,
            iters=args.iters,
        )
        for family in families
    ]
    if args.json:
        print(json.dumps(
            {"knob": args.knob, "results": [r.to_dict() for r in results]},
            indent=2, sort_keys=True,
        ))
        return 0
    rows = []
    for r in results:
        if not r.holds_at_lo:
            verdict = f"already broken at {r.holds_until:g}"
        elif not r.fails_at_hi:
            verdict = f"still holds at {r.breaks_from:g}"
        else:
            verdict = f"~{r.boundary:.3f}"
        rows.append([
            r.family, r.engine, r.timing_kind,
            f"{r.holds_until:.3f}", f"{r.breaks_from:.3f}",
            verdict, r.evaluations,
        ])
    print(_format_rows(
        ["family", "engine", "timing", "holds ≤", "breaks ≥",
         f"{args.knob} boundary", "runs"],
        rows,
    ))
    return 0


def _cmd_ls(args: argparse.Namespace) -> int:
    if args.limit < 0:
        raise LabError(f"--limit must be >= 0, got {args.limit}")
    with _open_existing(args.store) as store:
        # Filter and slice on the cheap index first; only the rows that
        # survive get their report blob parsed for the verdict column.
        selected = [
            key
            for key, engine, _name, _ok in store.index()
            if args.engine is None or engine == args.engine
        ]
        if args.limit:
            selected = selected[-args.limit:]
        rows = [_entry_row(key, store.get(key)) for key in selected]
        total = len(store)
    if not rows:
        if total:
            print(f"no runs match the filters ({total} in store)")
        else:
            print(f"store {args.store}: empty")
        return 0
    print(_format_rows(["key", "engine", "scenario", "verdict", "t"], rows))
    print(f"{len(rows)} run(s) shown")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    with _open_existing(args.store) as store:
        key = _resolve_key(store, args.key)
        entry = store.get(key)
    if args.json:
        print(json.dumps({"key": key, "entry": entry}, indent=2, sort_keys=True))
        return 0
    print(f"key: {key}")
    if not entry.get("ok"):
        print(
            f"FAILED {entry.get('engine')}: "
            f"{entry.get('error_type')}: {entry.get('message')}"
        )
        return 0
    report = RunReport.from_dict(entry["report"])
    print(report.summary())
    print(
        f"all-Deal: {report.all_deal()}  Thm4.9-safe: "
        f"{report.conforming_acceptable()}  events: {report.events_fired}  "
        f"stored bytes: {report.stored_bytes}"
    )
    milestones = entry.get("milestones")
    if milestones:
        print("milestones: " + ", ".join(
            f"{kind}={count}" for kind, count in sorted(milestones.items())
        ))
    return 0


_DIFF_FIELDS = (
    "engine",
    "completion_time",
    "phase_two_bound",
    "events_fired",
    "stored_bytes",
    "contract_storage_bytes",
    "published_bytes",
    "unlock_calls",
)


def _cmd_diff(args: argparse.Namespace) -> int:
    with _open_existing(args.store) as store:
        entries = [
            (key, store.get(key))
            for key in (_resolve_key(store, args.a), _resolve_key(store, args.b))
        ]
    rows: list[list[object]] = []
    sides: list[dict[str, object]] = []
    for key, entry in entries:
        if entry.get("ok"):
            report = RunReport.from_dict(entry["report"])
            side: dict[str, object] = {
                field: getattr(report, field) for field in _DIFF_FIELDS
            }
            side["scenario"] = report.scenario.label()
            side["all_deal"] = report.all_deal()
            side["thm49_safe"] = report.conforming_acceptable()
            side["outcomes"] = {
                v: o.value for v, o in sorted(report.outcomes.items())
            }
        else:
            side = {
                "engine": entry.get("engine"),
                "scenario": entry.get("scenario", {}).get("name", "-"),
                "error": f"{entry.get('error_type')}: {entry.get('message')}",
            }
        sides.append(side)
    left, right = sides
    differing = 0
    for field in sorted(set(left) | set(right)):
        a, b = left.get(field, "-"), right.get(field, "-")
        if a != b:
            differing += 1
        rows.append([field, a, b, "" if a == b else "<-- differs"])
    print(_format_rows(
        ["field", entries[0][0][:12], entries[1][0][:12], ""], rows
    ))
    print(f"{differing} field(s) differ")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    by = tuple(dim for dim in args.by.split(",") if dim)
    if not by:
        raise LabError(
            "--by needs at least one of engine, family, mix, params, "
            "timing, verdict, path"
        )
    if args.compare and args.engine:
        # Filtering would silently zero one side of the head-to-head.
        raise LabError(
            "--engine cannot be combined with --compare "
            "(compare already names its two engines)"
        )
    with _open_existing(args.store) as store:
        total = len(store)
        facts = collect_facts(store, engines=args.engine or None)
    if args.compare:
        engine_a, engine_b = args.compare
        check_dimensions(by)
        pivot = next((dim for dim in by if dim != "engine"), "family")
        rows = compare(facts, engine_a, engine_b, by=pivot)
        if args.json:
            print(json.dumps(
                {"compare": [engine_a, engine_b], "by": pivot, "rows": rows},
                indent=2, sort_keys=True,
            ))
            return 0
        headers, table = compare_table(rows, engine_a, engine_b, pivot)
        print(_format_rows(headers, table))
        print(f"{len(rows)} group(s) over {len(facts)} run(s)")
        return 0
    if args.json:
        print(json.dumps(stats_payload(facts, by), indent=2, sort_keys=True))
        return 0
    stats = aggregate(facts, by)  # validates --by even when empty
    if not facts:
        # Distinguish a store with no runs from a filter matching none.
        if total:
            print(f"no runs match the filters ({total} in store)")
        else:
            print(f"store {args.store}: empty")
        return 0
    headers, rows = stats_table(stats, by)
    print(_format_rows(headers, rows))
    print(f"{len(stats)} group(s) over {len(facts)} run(s)")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    # Every shard is opened or read — and so validated — before any
    # merging starts, so a typo'd, missing, or corrupt shard never
    # causes a partial merge.
    missing = [src for src in args.sources if not Path(src).exists()]
    if missing:
        raise LabError(f"no such shard store: {', '.join(missing)}")
    with ExitStack() as stack:
        shards: list[tuple[str, Iterable[Record]]] = [
            (src, read_jsonl(src) if Path(src).suffix in _JSONL_SUFFIXES
             else stack.enter_context(open_store(src)).records())
            for src in args.sources
        ]
        dest = stack.enter_context(open_store(args.dest))
        before = len(dest)
        written_total = 0
        for src, records in shards:
            written = dest.merge_from(records)
            written_total += written
            print(f"merged {src}: {written} record(s) written")
        print(
            f"{args.dest}: {before} -> {len(dest)} run(s) "
            f"({written_total} written)"
        )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    if Path(args.dest).suffix not in _JSONL_SUFFIXES:
        raise LabError(
            f"export writes JSON lines: DEST must end in "
            f"{' or '.join(_JSONL_SUFFIXES)}, got {args.dest}"
        )
    with _open_existing(args.store) as store:
        written = write_jsonl(store, args.dest)
    print(f"exported {written} run(s) from {args.store} to {args.dest}")
    return 0


def _cmd_families(args: argparse.Namespace) -> int:
    rows = []
    for name in list_families():
        family = get_family(name)
        sc = "yes" if family.strongly_connected else "NO (impossibility)"
        rows.append([name, dict(family.defaults), sc, family.description])
    print(_format_rows(["family", "params", "strongly connected", "description"], rows))
    return 0


def _cmd_mixes(args: argparse.Namespace) -> int:
    rows = [[name, get_mix(name).description] for name in list_mixes()]
    print(_format_rows(["mix", "description"], rows))
    return 0


def _cmd_timings(args: argparse.Namespace) -> int:
    rows = []
    for name in list_timings():
        profile = get_timing(name)
        spec = "-" if profile.spec is None else json.dumps(
            profile.spec, sort_keys=True
        )
        rows.append([name, spec, profile.description])
    print(_format_rows(["timing", "spec", "description"], rows))
    return 0


def _cmd_presets(args: argparse.Namespace) -> int:
    rows = []
    for name in list_presets():
        workloads = get_preset(name)
        families = ", ".join(dict.fromkeys(w.family for w in workloads))
        runs = len(build_sweep(list(workloads), name=name))
        rows.append([name, len(workloads), families, runs])
    print(_format_rows(["preset", "workloads", "families", "runs"], rows))
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _add_store_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=DEFAULT_STORE,
        help=f"run-store path (*.sqlite or :memory:); default {DEFAULT_STORE}",
    )


def _add_lease_args(parser: argparse.ArgumentParser) -> None:
    """The lease-protocol knobs, identical on driver and worker (the
    driver forwards them verbatim to every worker it spawns)."""
    parser.add_argument(
        "--lease-ttl", type=float, default=30.0,
        help="seconds a claimed chunk stays leased without a heartbeat "
             "(workers heartbeat per item, so this bounds one scenario, "
             "not a chunk; default 30)",
    )
    parser.add_argument(
        "--skew-grace", type=float, default=5.0,
        help="extra seconds past expiry before a lease is treated as "
             "dead (clock-disagreement allowance; default 5)",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=4,
        help="runs per claimable chunk (default 4)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lab",
        description="workload generation + content-addressed run store",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="expand and execute a workload")
    target = run.add_mutually_exclusive_group()
    target.add_argument("--preset", help="a registered preset (see `lab presets`)")
    target.add_argument("--family", help="a topology family (see `lab families`)")
    run.add_argument(
        "--grid", nargs="*", default=[], metavar="K=V[,V...]",
        help="family params; comma-separated values are swept",
    )
    run.add_argument("--mix", action="append", help="adversary mix (repeatable)")
    run.add_argument("--engine", action="append", help="engine (repeatable)")
    run.add_argument(
        "--timing", action="append",
        help="timing profile (repeatable; see `lab timings`) — replaces "
             "every workload's timing axis",
    )
    run.add_argument(
        "--seed", type=int, default=None,
        help="replace every workload's seed (re-rolls topologies and mixes)",
    )
    run.add_argument(
        "--progress", action="store_true",
        help="print per-chunk completion (with milestone counts) as "
             "results land",
    )
    run.add_argument(
        "--fast-path", action="store_true",
        help="answer fully-covered scenarios from the closed-form "
             "analytic engine (byte-identical reports, no simulation); "
             "the residue still runs through the workers",
    )
    run.add_argument("--serial", action="store_true", help="skip the process pool")
    run.add_argument("--workers", type=int, default=None)
    run.add_argument(
        "--fleet", type=int, default=0, metavar="N",
        help="drain with N local worker processes coordinated by the "
             "claim/lease protocol in the SQLite store (requires a "
             "*.sqlite --store)",
    )
    _add_lease_args(run)
    run.add_argument(
        "--no-store", action="store_true",
        help="execute without reading or writing the store",
    )
    _add_store_arg(run)
    run.set_defaults(func=_cmd_run)

    check = sub.add_parser(
        "check",
        help="statically verify workloads (diagnostics + closed-form "
             "predictions) without executing them",
    )
    check_target = check.add_mutually_exclusive_group()
    check_target.add_argument(
        "--preset", help="a registered preset (see `lab presets`)"
    )
    check_target.add_argument(
        "--family", help="a topology family (default: every family)"
    )
    check.add_argument(
        "--grid", nargs="*", default=[], metavar="K=V[,V...]",
        help="family params; comma-separated values are swept",
    )
    check.add_argument("--mix", action="append", help="adversary mix (repeatable)")
    check.add_argument("--engine", action="append", help="engine (repeatable)")
    check.add_argument(
        "--timing", action="append",
        help="timing profile (repeatable) — replaces every workload's "
             "timing axis",
    )
    check.add_argument(
        "--seed", type=int, default=None,
        help="replace every workload's seed",
    )
    check.add_argument(
        "--verify", action="store_true",
        help="also execute each scenario and cross-check the analysis: "
             "full-coverage predictions must byte-match the report, "
             "invalid scenarios must be refused by the engine "
             "(exit 1 on any mismatch)",
    )
    check.add_argument(
        "--fast-path", action="store_true",
        help="with --verify: satisfy full-coverage scenarios from the "
             "closed-form synthesizer instead of the simulator",
    )
    check.add_argument(
        "--strict", action="store_true",
        help="exit 1 when any scenario has error-severity diagnostics",
    )
    check.add_argument("--json", action="store_true", help="machine-readable")
    _add_store_arg(check)
    check.set_defaults(func=_cmd_check)

    bisect = sub.add_parser(
        "bisect",
        help="binary-search a timing knob to the all-Deal boundary "
             "per topology family",
    )
    bisect.add_argument(
        "--knob", default="violation",
        help="the timing parameter to bisect (currently: violation)",
    )
    bisect.add_argument(
        "--family", action="append",
        help="topology family (repeatable; default: "
             + ", ".join(_DEFAULT_BISECT_FAMILIES) + ")",
    )
    bisect.add_argument(
        "--grid", nargs="*", default=[], metavar="K=V",
        help="family params (single values only — the knob is the sweep)",
    )
    bisect.add_argument("--engine", default="herlihy")
    bisect.add_argument(
        "--timing-kind", default="stragglers",
        help="timing model the knob belongs to "
             "(stragglers | adaptive-stragglers)",
    )
    bisect.add_argument(
        "--seeds", type=int, default=3,
        help="panel size: seeds 0..N-1 must all reach all-Deal to 'hold'",
    )
    bisect.add_argument("--lo", type=float, default=1.05)
    bisect.add_argument("--hi", type=float, default=6.0)
    bisect.add_argument(
        "--iters", type=int, default=8, help="bisection halvings"
    )
    bisect.add_argument("--json", action="store_true", help="machine-readable")
    bisect.set_defaults(func=_cmd_bisect)

    ls = sub.add_parser("ls", help="list stored runs")
    ls.add_argument("--engine", help="only runs of this engine")
    ls.add_argument("--limit", type=int, default=0, help="show only the last N")
    _add_store_arg(ls)
    ls.set_defaults(func=_cmd_ls)

    show = sub.add_parser("show", help="print one stored run")
    show.add_argument("key", help="key prefix (hex)")
    show.add_argument("--json", action="store_true", help="raw stored entry")
    _add_store_arg(show)
    show.set_defaults(func=_cmd_show)

    diff = sub.add_parser("diff", help="compare two stored runs")
    diff.add_argument("a", help="first key prefix")
    diff.add_argument("b", help="second key prefix")
    _add_store_arg(diff)
    diff.set_defaults(func=_cmd_diff)

    stats = sub.add_parser("stats", help="cross-sweep aggregates")
    stats.add_argument(
        "--by", default="engine", metavar="DIM[,DIM...]",
        help="group-by dimensions: engine, family, mix, params, timing, "
             "verdict, path (comma-separated; default engine)",
    )
    stats.add_argument(
        "--engine", action="append",
        help="only runs of this engine (repeatable)",
    )
    stats.add_argument(
        "--compare", nargs=2, metavar=("A", "B"),
        help="pivot engines A and B head-to-head over the first "
             "non-engine --by dimension (family when --by has none); "
             "the safety delta column is B minus A",
    )
    stats.add_argument("--json", action="store_true", help="machine-readable")
    _add_store_arg(stats)
    stats.set_defaults(func=_cmd_stats)

    work = sub.add_parser(
        "work",
        help="run one fleet worker loop (claim → execute → commit) "
             "against a shared SQLite store",
    )
    work.add_argument(
        "--worker-id", default=None,
        help="this worker's identity in the lease table "
             "(default: {hostname}-{pid})",
    )
    work.add_argument(
        "--fast-path", action="store_true",
        help="answer fully-covered scenarios from the closed-form "
             "analytic engine (same semantics as `lab run --fast-path`)",
    )
    work.add_argument(
        "--max-chunks", type=int, default=None,
        help="exit after committing N chunks even if work remains",
    )
    work.add_argument("--json", action="store_true", help="machine-readable stats")
    _add_lease_args(work)
    _add_store_arg(work)
    work.set_defaults(func=_cmd_work)

    fleet = sub.add_parser("fleet", help="inspect fleet coordination state")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_status = fleet_sub.add_parser(
        "status",
        help="the queue snapshot: chunk claim/lease table, worker "
             "heartbeat ages",
    )
    fleet_status.add_argument(
        "--json", action="store_true", help="machine-readable snapshot"
    )
    _add_store_arg(fleet_status)
    fleet_status.set_defaults(func=_cmd_fleet_status)

    merge = sub.add_parser(
        "merge",
        help="absorb shard stores and *.jsonl exports into DEST "
             "(newest record wins)",
    )
    merge.add_argument("dest", help="destination store path")
    merge.add_argument(
        "sources", nargs="+", help="shard store or *.jsonl export path(s)"
    )
    merge.set_defaults(func=_cmd_merge)

    export = sub.add_parser(
        "export",
        help="write the store's runs to DEST as JSON lines "
             "(import them with `lab merge`)",
    )
    export.add_argument("dest", help="output *.jsonl path (overwritten)")
    _add_store_arg(export)
    export.set_defaults(func=_cmd_export)

    sub.add_parser("families", help="list topology families").set_defaults(
        func=_cmd_families
    )
    sub.add_parser("mixes", help="list adversary mixes").set_defaults(
        func=_cmd_mixes
    )
    sub.add_parser("timings", help="list timing profiles").set_defaults(
        func=_cmd_timings
    )
    sub.add_parser("presets", help="list workload presets").set_defaults(
        func=_cmd_presets
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
