"""The ``python -m repro lab`` command line.

Subcommands::

    lab run       expand a workload (preset or --family) and execute it
                  through the content-addressed store; warm re-runs
                  execute zero engines; --fast-path answers fully-
                  covered herlihy scenarios in closed form without
                  simulating; --fleet N drains the
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

Every subcommand is one row of :data:`COMMANDS` at the bottom of this
module: its name, help, handler, whether it takes ``--store`` and
``--json``, and its other arguments.  A new subcommand is registered
by adding a row there; ``lab run`` and ``lab check`` share one
workload-target group (``--preset/--family/--grid/--mix/--engine/
--timing/--seed``), ``lab run`` and ``lab work`` one lease group.
Read-only subcommands open their store through :func:`_open_existing`
and print ``--json`` documents through :func:`_print_json`.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from contextlib import ExitStack, nullcontext
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, ContextManager, Iterable, NamedTuple, Sequence

from repro.api.report import RunReport
from repro.api.sweep import Sweep, run_key, run_sweep
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


def _target_sweep(args: argparse.Namespace, check: bool = False) -> Sweep:
    """The sweep named by the shared workload-target arguments.

    ``lab run`` needs ``--preset`` or ``--family`` and titles the sweep
    after it; ``lab check`` (``check=True``) covers every family at its
    defaults when neither is given.  ``--timing`` and ``--seed`` replace
    every workload's timing axis and seed (timing names are validated
    up front so typos fail before any engine runs).
    """
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
    elif check:
        workloads = [
            Workload(name, dict(get_family(name).defaults))
            for name in list_families()
        ]
    else:
        raise LabError("lab run needs --preset or --family")
    if args.timing:
        for name in args.timing:
            get_timing(name)
        workloads = [replace(w, timings=tuple(args.timing)) for w in workloads]
    return build_sweep(
        workloads, name="check" if check else title, base_seed=args.seed
    )


def _open_existing(
    path: str,
    opener: Callable[[Path], Any] = open_store,
    resolve: Callable[[str], Path] = Path,
    missing: str = "no such store: {}",
) -> Any:
    """Open a store that must already exist.

    Read-only subcommands go through this instead of
    :func:`open_store`, which would silently create an empty store for
    a typo'd path — a false "empty" answer plus a junk file on disk.
    The fleet subcommands pass ``resolve=ensure_fleet_path``, which
    refuses JSONL/:memory: *before* the existence check so the
    unsafe-backend error names the real problem, and their own
    ``opener`` and ``missing`` message.
    """
    target = resolve(path)
    if path != ":memory:" and not target.exists():
        raise LabError(missing.format(path))
    return opener(target)


def _print_json(payload: Any) -> int:
    """Print a subcommand's ``--json`` document; exit status 0."""
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _print_no_rows(total: int, store: str) -> int:
    """Distinguish a store with no runs from a filter matching none."""
    if total:
        print(f"no runs match the filters ({total} in store)")
    else:
        print(f"store {store}: empty")
    return 0


def _fleet_config(args: argparse.Namespace) -> Any:
    from repro.fleet import FleetConfig

    return FleetConfig(
        lease_ttl=args.lease_ttl,
        skew_grace=args.skew_grace,
        chunk_size=args.chunk_size,
    )


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
    sweep = _target_sweep(args)
    if args.fleet:
        return _run_fleet_drain(args, sweep)
    with (nullcontext() if args.no_store else open_store(args.store)) as store:
        report = run_sweep(
            sweep,
            parallel=not args.serial,
            max_workers=args.workers,
            store=store,
            progress=_print_progress if args.progress else None,
            fast_path=args.fast_path,
        )
        total = 0 if store is None else len(store)
    print(report.summary())
    if store is None:
        print(f"store: disabled (--no-store) — executed {report.executed}")
        return 0
    print(
        f"store: {args.store} — executed {report.executed}, "
        f"cached {report.cached}, analytic {report.analytic}, "
        f"{total} run(s) stored"
    )
    return 0


def _run_fleet_drain(args: argparse.Namespace, sweep: Sweep) -> int:
    """``lab run --fleet N``: drain the sweep with N worker processes.

    The claim/lease coordination lives in the SQLite store itself (see
    :mod:`repro.fleet`), so the drained store is byte-identical to what
    a serial ``lab run`` against the same store would hold — ``lab
    stats``/``lab merge`` work on it unchanged.
    """
    from repro.fleet import run_fleet

    if args.no_store:
        raise LabError(
            "--fleet coordinates workers through the store; "
            "it cannot be combined with --no-store"
        )
    fleet_report = run_fleet(
        sweep,
        args.store,
        workers=args.fleet,
        config=_fleet_config(args),
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
    from repro.fleet import FleetWorker, ensure_fleet_path

    with _open_existing(
        args.store,
        lambda path: FleetWorker(
            path,
            config=_fleet_config(args),
            worker_id=args.worker_id,
            fast_path=args.fast_path,
        ),
        resolve=ensure_fleet_path,
        missing="no such fleet store: {} (the driver — `lab run "
        "--fleet` — creates and fills it before workers start)",
    ) as worker:
        stats = worker.run(max_chunks=args.max_chunks)
    if args.json:
        return _print_json(stats.to_dict())
    print(
        f"worker {stats.worker_id}: {stats.chunks_committed} chunk(s), "
        f"{stats.items_committed} item(s) committed in "
        f"{stats.wall_seconds:.2f}s (claims {stats.claims}, leases lost "
        f"{stats.leases_lost}, idle waits {stats.idle_waits})"
    )
    return 0


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    from repro.fleet import FleetCoordinator, ensure_fleet_path

    with _open_existing(
        args.store, FleetCoordinator, resolve=ensure_fleet_path
    ) as coordinator:
        status = coordinator.status()
    if args.json:
        return _print_json(status)
    counts = status["counts"]
    print(f"store: {status['store']}")
    print(
        f"chunks: {counts['pending']} pending, {counts['leased']} leased, "
        f"{counts['done']} done — items {counts['items_done']}/"
        f"{counts['items_queued']}"
    )
    if status["chunks"]:
        print(format_rows(
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
        print(format_rows(
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


def _print_progress(tick: Any) -> None:
    """The ``run_sweep(progress=...)`` callback: one line per tick."""
    milestones = ",".join(
        f"{kind.split('-')[0]}={count}"
        for kind, count in sorted(tick.milestones.items())
    )
    note = f" [{milestones}]" if milestones else ""
    if tick.fresh:
        print(f"  {tick.completed}/{tick.total} (+{tick.fresh}){note}")
    else:
        print(f"  {tick.completed}/{tick.total} ({tick.cached} cached)")


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

    An ``analytic`` report is synthesized from the very prediction it is
    compared with, so that check shows only that the closed-form route
    is taken and agrees with itself; byte parity with the simulator is
    asserted by ``make parity`` and the plain ``make check``, which
    execute the engine.
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


def _verify_store(args: argparse.Namespace) -> ContextManager[Any]:
    """The store ``lab check --verify`` reuses reports from.

    A missing *default* store just means a cold verify (check must work
    in a fresh tree); an explicitly named store that does not exist is a
    typo and errors like every read-only subcommand.  ``:memory:`` is
    always empty, so it degrades to cold too.  A cold verify reads from
    an empty mapping.
    """
    cold = args.store == ":memory:" or (
        args.store == DEFAULT_STORE and not Path(args.store).exists()
    )
    if not args.verify or cold:
        return nullcontext({})
    return _open_existing(args.store)


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis.protocol import analyze_scenario

    sweep = _target_sweep(args, check=True)
    results = []
    with _verify_store(args) as store:
        for engine, scenario in sweep.items():
            analysis = analyze_scenario(scenario, engine=engine)
            verify: tuple[str, list[str], str] = ("-", [], "-")
            if args.verify:
                verify = _verify_prediction(
                    engine, scenario, analysis,
                    stored=store.get(run_key(engine, scenario)),
                    fast_path=args.fast_path,
                )
            results.append((engine, scenario.label(), analysis, *verify))
    errors = sum(not analysis.ok() for _, _, analysis, *_ in results)
    failed = [
        (label, mismatches)
        for _, label, _, status, mismatches, _ in results
        if status == "FAIL"
    ]
    if args.json:
        _print_json({"checks": [
            {
                "engine": engine,
                "scenario": label,
                "analysis": analysis.to_dict(),
                **({"verify": {
                    "status": status,
                    "mismatches": mismatches,
                    "source": source,
                }} if args.verify else {}),
            }
            for engine, label, analysis, status, mismatches, source in results
        ]})
    else:
        headers = [
            "scenario", "engine", "coverage", "verdict", "t(pred)",
            "span/Δ", "diags",
        ]
        if args.verify:
            headers.append("verify")
        rows = [
            [
                label,
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
            for engine, label, analysis, status, _, _ in results
            for prediction in [analysis.prediction]
        ]
        print(format_rows(headers, rows))
        note = f"{len(rows)} scenario(s) checked, {errors} with errors"
        if args.verify:
            note += f", {len(failed)} prediction failure(s)"
            sources = Counter(source for *_, source in results if source != "-")
            detail = ", ".join(
                f"{count} {source}" for source, count in sorted(sources.items())
            )
            if detail:
                note += f" ({detail})"
        print(note)
        for label, mismatches in failed:
            for mismatch in mismatches:
                print(f"  FAIL {label}: {mismatch}", file=sys.stderr)
    return 1 if failed or (args.strict and errors) else 0


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
        return _print_json(
            {"knob": args.knob, "results": [r.to_dict() for r in results]}
        )
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
    print(format_rows(
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
        return _print_no_rows(total, args.store)
    print(format_rows(["key", "engine", "scenario", "verdict", "t"], rows))
    print(f"{len(rows)} run(s) shown")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    with _open_existing(args.store) as store:
        key = _resolve_key(store, args.key)
        entry = store.get(key)
    if args.json:
        return _print_json({"key": key, "entry": entry})
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
    print(format_rows(
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
            return _print_json(
                {"compare": [engine_a, engine_b], "by": pivot, "rows": rows}
            )
        headers, table = compare_table(rows, engine_a, engine_b, pivot)
        print(format_rows(headers, table))
        print(f"{len(rows)} group(s) over {len(facts)} run(s)")
        return 0
    if args.json:
        return _print_json(stats_payload(facts, by))
    stats = aggregate(facts, by)  # validates --by even when empty
    if not facts:
        return _print_no_rows(total, args.store)
    headers, rows = stats_table(stats, by)
    print(format_rows(headers, rows))
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


def _listing(
    names: Callable[[], Iterable[str]],
    get: Callable[[str], Any],
    headers: list[str],
    row: Callable[[str, Any], list[object]],
) -> Callable[[argparse.Namespace], int]:
    """A discovery subcommand: one table row per registry entry."""

    def handler(args: argparse.Namespace) -> int:
        print(format_rows(headers, [row(name, get(name)) for name in names()]))
        return 0

    return handler


# ---------------------------------------------------------------------------
# wiring: the subcommand table
# ---------------------------------------------------------------------------

_AddArgs = Callable[[argparse.ArgumentParser], object]


def _arg(*flags: str, **kwargs: Any) -> _AddArgs:
    return lambda parser: parser.add_argument(*flags, **kwargs)


def _workload_args(family_help: str) -> tuple[_AddArgs, ...]:
    """The workload target ``lab run`` and ``lab check`` share."""

    def target(parser: argparse.ArgumentParser) -> None:
        group = parser.add_mutually_exclusive_group()
        group.add_argument("--preset", help="a registered preset (see `lab presets`)")
        group.add_argument("--family", help=family_help)

    return (
        target,
        _arg(
            "--grid", nargs="*", default=[], metavar="K=V[,V...]",
            help="family params; comma-separated values are swept",
        ),
        _arg("--mix", action="append", help="adversary mix (repeatable)"),
        _arg("--engine", action="append", help="engine (repeatable)"),
        _arg(
            "--timing", action="append",
            help="timing profile (repeatable; see `lab timings`) — replaces "
                 "every workload's timing axis",
        ),
        _arg(
            "--seed", type=int, default=None,
            help="replace every workload's seed (re-rolls topologies and mixes)",
        ),
    )


#: The lease-protocol knobs, identical on driver and worker (the driver
#: forwards them verbatim to every worker it spawns).
_LEASE_ARGS = (
    _arg(
        "--lease-ttl", type=float, default=30.0,
        help="seconds a claimed chunk stays leased without a heartbeat "
             "(workers heartbeat once a lease is a quarter of this old, "
             "so this bounds one scenario, not a chunk; default 30)",
    ),
    _arg(
        "--skew-grace", type=float, default=5.0,
        help="extra seconds past expiry before a lease is treated as "
             "dead (clock-disagreement allowance; default 5)",
    ),
    _arg(
        "--chunk-size", type=int, default=4,
        help="runs per claimable chunk (default 4)",
    ),
)


class Command(NamedTuple):
    """One ``lab`` subcommand.  A row whose ``handler`` is ``None`` is a
    group; ``"fleet status"`` is the ``status`` subcommand of ``fleet``."""

    name: str
    help: str
    handler: Callable[[argparse.Namespace], int] | None
    store: bool = False  # takes --store (default DEFAULT_STORE)
    json: str = ""  # the --json flag's help; "" for no --json
    args: tuple[_AddArgs, ...] = ()  # every other argument, in order


COMMANDS: tuple[Command, ...] = (
    Command("run", "expand and execute a workload", _cmd_run, store=True, args=(
        *_workload_args("a topology family (see `lab families`)"),
        _arg(
            "--progress", action="store_true",
            help="print per-chunk completion (with milestone counts) as "
                 "results land",
        ),
        _arg(
            "--fast-path", action="store_true",
            help="answer fully-covered herlihy scenarios in closed form "
                 "(byte-identical reports, no simulation); "
                 "the residue still runs through the workers",
        ),
        _arg("--serial", action="store_true", help="skip the process pool"),
        _arg("--workers", type=int, default=None),
        _arg(
            "--fleet", type=int, default=0, metavar="N",
            help="drain with N local worker processes coordinated by the "
                 "claim/lease protocol in the SQLite store (requires a "
                 "*.sqlite --store)",
        ),
        *_LEASE_ARGS,
        _arg(
            "--no-store", action="store_true",
            help="execute without reading or writing the store",
        ),
    )),
    Command(
        "check",
        "statically verify workloads (diagnostics + closed-form "
        "predictions) without executing them",
        _cmd_check, store=True, json="machine-readable", args=(
            *_workload_args("a topology family (default: every family)"),
            _arg(
                "--verify", action="store_true",
                help="also execute each scenario and cross-check the analysis: "
                     "full-coverage predictions must byte-match the report, "
                     "invalid scenarios must be refused by the engine "
                     "(exit 1 on any mismatch)",
            ),
            _arg(
                "--fast-path", action="store_true",
                help="with --verify: satisfy full-coverage scenarios from the "
                     "closed-form synthesizer instead of the simulator",
            ),
            _arg(
                "--strict", action="store_true",
                help="exit 1 when any scenario has error-severity diagnostics",
            ),
        ),
    ),
    Command(
        "bisect",
        "binary-search a timing knob to the all-Deal boundary per "
        "topology family",
        _cmd_bisect, json="machine-readable", args=(
            _arg(
                "--knob", default="violation",
                help="the timing parameter to bisect (currently: violation)",
            ),
            _arg(
                "--family", action="append",
                help="topology family (repeatable; default: "
                     + ", ".join(_DEFAULT_BISECT_FAMILIES) + ")",
            ),
            _arg(
                "--grid", nargs="*", default=[], metavar="K=V",
                help="family params (single values only — the knob is the sweep)",
            ),
            _arg("--engine", default="herlihy"),
            _arg(
                "--timing-kind", default="stragglers",
                help="timing model the knob belongs to "
                     "(stragglers | adaptive-stragglers)",
            ),
            _arg(
                "--seeds", type=int, default=3,
                help="panel size: seeds 0..N-1 must all reach all-Deal to 'hold'",
            ),
            _arg("--lo", type=float, default=1.05),
            _arg("--hi", type=float, default=6.0),
            _arg("--iters", type=int, default=8, help="bisection halvings"),
        ),
    ),
    Command("ls", "list stored runs", _cmd_ls, store=True, args=(
        _arg("--engine", help="only runs of this engine"),
        _arg("--limit", type=int, default=0, help="show only the last N"),
    )),
    Command(
        "show", "print one stored run", _cmd_show, store=True,
        json="raw stored entry", args=(_arg("key", help="key prefix (hex)"),),
    ),
    Command("diff", "compare two stored runs", _cmd_diff, store=True, args=(
        _arg("a", help="first key prefix"),
        _arg("b", help="second key prefix"),
    )),
    Command(
        "stats", "cross-sweep aggregates", _cmd_stats, store=True,
        json="machine-readable", args=(
            _arg(
                "--by", default="engine", metavar="DIM[,DIM...]",
                help="group-by dimensions: engine, family, mix, params, "
                     "timing, verdict, path (comma-separated; default engine)",
            ),
            _arg(
                "--engine", action="append",
                help="only runs of this engine (repeatable)",
            ),
            _arg(
                "--compare", nargs=2, metavar=("A", "B"),
                help="pivot engines A and B head-to-head over the first "
                     "non-engine --by dimension (family when --by has "
                     "none); the safety delta column is B minus A",
            ),
        ),
    ),
    Command(
        "work",
        "run one fleet worker loop (claim → execute → commit) against a "
        "shared SQLite store",
        _cmd_work, store=True, json="machine-readable stats", args=(
            _arg(
                "--worker-id", default=None,
                help="this worker's identity in the lease table "
                     "(default: {hostname}-{pid})",
            ),
            _arg(
                "--fast-path", action="store_true",
                help="answer fully-covered herlihy scenarios in closed "
                     "form (same semantics as `lab run "
                     "--fast-path`)",
            ),
            _arg(
                "--max-chunks", type=int, default=None,
                help="exit after committing N chunks even if work remains",
            ),
            *_LEASE_ARGS,
        ),
    ),
    Command("fleet", "inspect fleet coordination state", None),
    Command(
        "fleet status",
        "the queue snapshot: chunk claim/lease table, worker heartbeat ages",
        _cmd_fleet_status, store=True, json="machine-readable snapshot",
    ),
    Command(
        "merge",
        "absorb shard stores and *.jsonl exports into DEST (newest record "
        "wins)",
        _cmd_merge, args=(
            _arg("dest", help="destination store path"),
            _arg(
                "sources", nargs="+",
                help="shard store or *.jsonl export path(s)",
            ),
        ),
    ),
    Command(
        "export",
        "write the store's runs to DEST as JSON lines (import them with "
        "`lab merge`)",
        _cmd_export, store=True,
        args=(_arg("dest", help="output *.jsonl path (overwritten)"),),
    ),
    Command("families", "list topology families", _listing(
        list_families, get_family,
        ["family", "params", "strongly connected", "description"],
        lambda name, family: [
            name, dict(family.defaults),
            "yes" if family.strongly_connected else "NO (impossibility)",
            family.description,
        ],
    )),
    Command("mixes", "list adversary mixes", _listing(
        list_mixes, get_mix, ["mix", "description"],
        lambda name, mix: [name, mix.description],
    )),
    Command("timings", "list timing profiles", _listing(
        list_timings, get_timing, ["timing", "spec", "description"],
        lambda name, profile: [
            name,
            "-" if profile.spec is None
            else json.dumps(profile.spec, sort_keys=True),
            profile.description,
        ],
    )),
    Command("presets", "list workload presets", _listing(
        list_presets, get_preset, ["preset", "workloads", "families", "runs"],
        lambda name, workloads: [
            name,
            len(workloads),
            ", ".join(dict.fromkeys(w.family for w in workloads)),
            len(build_sweep(list(workloads), name=name)),
        ],
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lab",
        description="workload generation + content-addressed run store",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for command in COMMANDS:
        group, _, name = command.name.rpartition(" ")
        sub = groups[group].add_parser(name, help=command.help)
        if command.handler is None:
            groups[command.name] = sub.add_subparsers(
                dest=f"{name}_command", required=True
            )
            continue
        for add in command.args:
            add(sub)
        if command.json:
            sub.add_argument("--json", action="store_true", help=command.json)
        if command.store:
            sub.add_argument(
                "--store",
                default=DEFAULT_STORE,
                help=f"run-store path (*.sqlite or :memory:); default "
                     f"{DEFAULT_STORE}",
            )
        sub.set_defaults(func=command.handler)
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
