"""Cross-sweep analytics over content-addressed run stores.

The paper's claims are *rate* statements over adversarial executions —
every party ends Deal when all conform (Theorem 4.2), no conforming
party ends Underwater under any coalition (Theorem 4.9) — so once
:mod:`repro.lab.store` holds thousands of runs the interesting question
is no longer "what happened in run ``3f2a``" but "what fraction of
``phase-crash`` runs on ``erdos-renyi`` topologies stayed safe, per
engine".  This module answers that:

* :func:`collect_facts` flattens stored entries into :class:`RunFacts`
  rows *without* reconstructing scenarios or topologies — group-by keys
  come from the structured ``lab:`` scenario-name convention
  (``lab:<family>:<params>:<mix>:<engine>#<i>``, see
  :func:`repro.lab.workloads.build_sweep`) via :func:`parse_lab_name`,
  except ``timing``, which reads the scenario's canonical ``timing``
  field (:func:`timing_of`) so pre-timing entries group as ``uniform``;
* :func:`dimensions` enumerates the distinct values each group-by
  dimension takes across a store;
* :func:`aggregate` groups facts by any subset of
  ``engine``/``family``/``mix``/``params``/``timing`` and emits
  :class:`GroupStats` — run counts, all-Deal rate, Theorem-4.9 safety
  rate, mean/percentile completion time, mean stored bytes, total wall
  time, and a failure taxonomy keyed by ``error_type``;
* :func:`compare` pivots two engines into a head-to-head table
  (e.g. ``herlihy`` vs ``naive-timelock`` per family).

The plain-text table emitters (:func:`format_rows`,
:func:`format_table`) live here so ``python -m repro lab``, the
benchmarks, and ad-hoc scripts all render the same shape.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Mapping, Sequence

from repro.analysis.outcomes import ACCEPTABLE_OUTCOMES, Outcome
from repro.errors import LabError, ReproError
from repro.lab.store import SqliteStore
from repro.sim import milestones

#: The group-by dimensions every stored run exposes.
DIMENSIONS = ("engine", "family", "mix", "params", "timing")

#: ``DIMENSIONS`` plus the derived group-bys ``aggregate`` accepts.
#: ``verdict`` is the static analyzer's predicted all-Deal verdict
#: (:mod:`repro.analysis.protocol`), recomputed from the stored scenario
#: — grouping observed ``all-Deal`` rates by it makes
#: prediction-vs-observed divergence visible straight from the CLI.
#: ``path`` is the execution-path provenance stamp fast-path sweeps
#: record in ``report.extra["path"]`` (:mod:`repro.analysis.engine`) —
#: ``analytic`` for closed-form reports, ``simulated`` for engine runs
#: (also the default for entries recorded before the stamp existed, all
#: of which did run the simulator).
GROUPABLE_DIMENSIONS = (*DIMENSIONS, "verdict", "path")

_ACCEPTABLE_VALUES = frozenset(o.value for o in ACCEPTABLE_OUTCOMES)
_DEAL = Outcome.DEAL.value


# ---------------------------------------------------------------------------
# table emission (shared by the lab CLI and the benchmarks)
# ---------------------------------------------------------------------------


def format_rows(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned ASCII table (headers, separator, rows)."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("-+-".join("-" * w for w in widths))
    lines += [" | ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells]
    return "\n".join(lines)


def format_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """An aligned ASCII table under an underlined title."""
    return "\n".join([title, "=" * len(title), format_rows(headers, rows)])


# ---------------------------------------------------------------------------
# fact extraction
# ---------------------------------------------------------------------------


def parse_lab_name(name: str) -> dict[str, str]:
    """Group-by keys from one structured scenario name.

    ``lab:<family>:<params>:<mix>:<engine>#<index>`` (the
    :func:`repro.lab.workloads.build_sweep` convention) parses into
    ``{"family", "params", "mix"}``; any other name — ad-hoc sweeps,
    hand-built scenarios — yields ``"-"`` placeholders so it still
    aggregates under engine.

    The family segment is the workload *label* — the custom
    ``Workload.name`` when one was given, the topology family otherwise
    — so two differently-named workloads of one family group
    separately, which is what a named workload asks for.  Parsing is
    anchored at the *right* (params, mix, and engine labels never
    contain ``:``), so a label containing colons stays in the family
    segment instead of shifting every field.
    """
    parts = name.split(":")
    if len(parts) >= 5 and parts[0] == "lab":
        return {
            "family": ":".join(parts[1:-3]),
            "params": parts[-3],
            "mix": parts[-2],
        }
    return {"family": "-", "params": "-", "mix": "-"}


@dataclass(frozen=True)
class RunFacts:
    """One stored run flattened to its aggregatable facts.

    Built straight from the stored entry dict — no
    :class:`~repro.api.report.RunReport` or topology reconstruction —
    so fact collection stays linear in store size with a small constant.
    Verdict fields are ``None`` for failure records.
    """

    key: str
    engine: str
    scenario_name: str
    family: str
    params: str
    mix: str
    timing: str
    ok: bool
    error_type: str | None
    all_deal: bool | None
    thm49_safe: bool | None
    completion_time: int | None
    stored_bytes: int | None
    wall_seconds: float | None
    milestones: dict[str, int] | None = None
    """Milestone counts recorded beside the report (1.5+ stores); ``None``
    for failure records and entries recorded before the session API."""
    path: str = "-"
    """Execution-path provenance: ``report.extra["path"]`` when stamped
    (fast-path sweeps), ``"simulated"`` for unstamped success records
    (every pre-fast-path entry ran the simulator), ``"-"`` for failures
    (no report was produced on either path)."""
    scenario_dict: dict | None = None
    """The serialized scenario, kept for derived dimensions that need to
    reconstruct it (``verdict``); ``None`` only for hand-built facts."""

    @cached_property
    def verdict(self) -> str:
        """The static analyzer's predicted all-Deal verdict for this run
        (:func:`repro.analysis.protocol.analyze_scenario`), computed
        lazily — only ``--by verdict`` aggregations pay for it."""
        if self.scenario_dict is None:
            return "unknown"
        from repro.analysis.protocol import analyze_scenario
        from repro.api.scenario import Scenario

        try:
            scenario = Scenario.from_dict(dict(self.scenario_dict))
        except (ReproError, KeyError, TypeError, ValueError):
            # Old or hand-built store entries may carry scenario dicts
            # from_dict no longer accepts; a stats aggregation must
            # classify them, not crash on them.
            return "invalid"
        return analyze_scenario(scenario, engine=self.engine).verdict


def timing_of(scenario: dict) -> str:
    """The timing-model kind of one serialized scenario dict.

    Reads the scenario's canonical ``timing`` field rather than the
    display name, so hand-built scenarios group correctly too; entries
    recorded before the field existed (or with it omitted) are exactly
    the historical uniform behaviour and group as ``"uniform"``.
    """
    spec = scenario.get("timing")
    if spec is None:
        return "uniform"
    if isinstance(spec, str):
        return spec
    return spec.get("kind", "uniform")


def entry_facts(key: str, entry: dict) -> RunFacts:
    """Flatten one stored entry dict into :class:`RunFacts`."""
    if entry.get("ok"):
        report = entry["report"]
        outcomes: dict[str, str] = report.get("outcomes", {})
        conforming = report.get("conforming", ())
        scenario = report.get("scenario", {})
        name = scenario.get("name", "")
        return RunFacts(
            key=key,
            engine=report.get("engine", "?"),
            scenario_name=name,
            timing=timing_of(scenario),
            ok=True,
            error_type=None,
            all_deal=all(o == _DEAL for o in outcomes.values()),
            thm49_safe=all(
                outcomes.get(v) in _ACCEPTABLE_VALUES for v in conforming
            ),
            completion_time=report.get("completion_time"),
            stored_bytes=report.get("stored_bytes"),
            wall_seconds=report.get("wall_seconds"),
            milestones=entry.get("milestones"),
            path=(report.get("extra") or {}).get("path", "simulated"),
            scenario_dict=scenario,
            **parse_lab_name(name),
        )
    scenario = entry.get("scenario", {})
    name = scenario.get("name", "")
    return RunFacts(
        key=key,
        engine=entry.get("engine", "?"),
        scenario_name=name,
        timing=timing_of(scenario),
        ok=False,
        error_type=entry.get("error_type", "?"),
        all_deal=None,
        thm49_safe=None,
        completion_time=None,
        stored_bytes=None,
        wall_seconds=None,
        scenario_dict=scenario,
        **parse_lab_name(name),
    )


def collect_facts(
    store: SqliteStore,
    engines: Sequence[str] | None = None,
    families: Sequence[str] | None = None,
    mixes: Sequence[str] | None = None,
) -> list[RunFacts]:
    """Flatten (and optionally filter) every stored run, in store order."""
    facts = []
    for key, entry in store.entries():
        fact = entry_facts(key, entry)
        if engines and fact.engine not in engines:
            continue
        if families and fact.family not in families:
            continue
        if mixes and fact.mix not in mixes:
            continue
        facts.append(fact)
    return facts


def dimensions(facts: Iterable[RunFacts]) -> dict[str, tuple[str, ...]]:
    """The distinct values each group-by dimension takes, sorted."""
    values: dict[str, set[str]] = {dim: set() for dim in DIMENSIONS}
    for fact in facts:
        for dim in DIMENSIONS:
            values[dim].add(getattr(fact, dim))
    return {dim: tuple(sorted(values[dim])) for dim in DIMENSIONS}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    if not values:
        raise LabError("percentile of an empty sequence")
    if not 0 <= q <= 100:
        raise LabError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100
    low, frac = int(rank), rank - int(rank)
    if frac == 0:
        return float(ordered[low])
    return ordered[low] + (ordered[low + 1] - ordered[low]) * frac


@dataclass(frozen=True)
class GroupStats:
    """Aggregates for one group of runs (one `aggregate` output row).

    Rates are over *successful* runs (failure records carry no
    outcomes); the failure taxonomy counts the rest by ``error_type``.
    """

    group: tuple[tuple[str, str], ...]
    """``((dimension, value), ...)`` in the requested group-by order."""
    runs: int
    ok: int
    all_deal: int
    thm49_safe: int
    completion_mean: float | None
    completion_p50: float | None
    completion_p90: float | None
    stored_bytes_mean: float | None
    wall_ms_total: float
    failures: dict[str, int]
    milestone_means: dict[str, float] = field(default_factory=dict)
    """Mean milestone count per kind, over the group's runs that carry
    milestone data (entries recorded before the session API have none
    and are excluded from the mean, not counted as zero)."""

    @property
    def all_deal_rate(self) -> float:
        return self.all_deal / self.ok if self.ok else 0.0

    @property
    def thm49_safe_rate(self) -> float:
        return self.thm49_safe / self.ok if self.ok else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "group": dict(self.group),
            "runs": self.runs,
            "ok": self.ok,
            "all_deal": self.all_deal,
            "all_deal_rate": self.all_deal_rate,
            "thm49_safe": self.thm49_safe,
            "thm49_safe_rate": self.thm49_safe_rate,
            "completion_mean": self.completion_mean,
            "completion_p50": self.completion_p50,
            "completion_p90": self.completion_p90,
            "stored_bytes_mean": self.stored_bytes_mean,
            "wall_ms_total": self.wall_ms_total,
            "failures": dict(self.failures),
            "milestone_means": dict(self.milestone_means),
        }


def check_dimensions(by: Sequence[str]) -> tuple[str, ...]:
    """Validate group-by dimensions; shared with the ``lab stats`` CLI.

    Accepts the stored :data:`DIMENSIONS` plus the derived ``verdict``
    dimension (the analyzer's predicted all-Deal verdict)."""
    by = tuple(by)
    unknown = [dim for dim in by if dim not in GROUPABLE_DIMENSIONS]
    if not by or unknown:
        raise LabError(
            "group-by dimensions must be among "
            f"{', '.join(GROUPABLE_DIMENSIONS)}; got {list(by) or '<none>'}"
        )
    return by


def aggregate(
    facts: Iterable[RunFacts], by: Sequence[str] = ("engine",)
) -> list[GroupStats]:
    """Group facts by ``by`` dimensions and aggregate each group."""
    by = check_dimensions(by)
    groups: dict[tuple[str, ...], list[RunFacts]] = {}
    for fact in facts:
        groups.setdefault(tuple(getattr(fact, dim) for dim in by), []).append(fact)
    stats = []
    for values in sorted(groups):
        members = groups[values]
        succeeded = [f for f in members if f.ok]
        completions = [
            float(f.completion_time)
            for f in succeeded
            if f.completion_time is not None
        ]
        stored = [f.stored_bytes for f in succeeded if f.stored_bytes is not None]
        with_milestones = [f for f in succeeded if f.milestones is not None]
        milestone_totals: dict[str, float] = {}
        for f in with_milestones:
            for kind, count in f.milestones.items():
                milestone_totals[kind] = milestone_totals.get(kind, 0.0) + count
        milestone_means = {
            kind: total / len(with_milestones)
            for kind, total in sorted(milestone_totals.items())
        }
        stats.append(
            GroupStats(
                group=tuple(zip(by, values)),
                runs=len(members),
                ok=len(succeeded),
                all_deal=sum(bool(f.all_deal) for f in succeeded),
                thm49_safe=sum(bool(f.thm49_safe) for f in succeeded),
                completion_mean=(
                    sum(completions) / len(completions) if completions else None
                ),
                completion_p50=percentile(completions, 50) if completions else None,
                completion_p90=percentile(completions, 90) if completions else None,
                stored_bytes_mean=sum(stored) / len(stored) if stored else None,
                wall_ms_total=sum(
                    (f.wall_seconds or 0.0) * 1000 for f in members
                ),
                failures=dict(
                    Counter(f.error_type for f in members if not f.ok)
                ),
                milestone_means=milestone_means,
            )
        )
    return stats


def stats_payload(
    facts: Sequence[RunFacts], by: Sequence[str] = ("engine",)
) -> dict[str, Any]:
    """The machine-readable shape behind ``lab stats --json``."""
    return {
        "total_runs": len(facts),
        "by": list(check_dimensions(by)),
        "dimensions": {k: list(v) for k, v in dimensions(facts).items()},
        "groups": [gs.to_dict() for gs in aggregate(facts, by)],
    }


# ---------------------------------------------------------------------------
# head-to-head comparison
# ---------------------------------------------------------------------------


def compare(
    facts: Iterable[RunFacts],
    engine_a: str,
    engine_b: str,
    by: str = "family",
) -> list[dict[str, Any]]:
    """Pivot two engines into one head-to-head row per ``by`` value.

    Each row carries both engines' run counts, all-Deal and
    Theorem-4.9 safety rates, and mean completion time, plus the
    safety-rate delta ``b - a``: *positive* means ``engine_b`` is
    safer, so ``compare(facts, "herlihy", "naive-timelock")`` reports
    how much safety the timelock baseline gives up as a negative delta.
    """
    if by not in DIMENSIONS or by == "engine":
        raise LabError(
            f"compare pivots over one of "
            f"{', '.join(d for d in DIMENSIONS if d != 'engine')}; got {by!r}"
        )
    facts = list(facts)
    sides = {
        engine: {
            gs.group[0][1]: gs
            for gs in aggregate(
                [f for f in facts if f.engine == engine], by=(by,)
            )
        }
        for engine in (engine_a, engine_b)
    }
    rows = []
    for value in sorted(set(sides[engine_a]) | set(sides[engine_b])):
        a, b = sides[engine_a].get(value), sides[engine_b].get(value)
        rows.append(
            {
                by: value,
                "runs": ((a.runs if a else 0), (b.runs if b else 0)),
                "all_deal_rate": (
                    a.all_deal_rate if a else None,
                    b.all_deal_rate if b else None,
                ),
                "thm49_safe_rate": (
                    a.thm49_safe_rate if a else None,
                    b.thm49_safe_rate if b else None,
                ),
                "completion_mean": (
                    a.completion_mean if a else None,
                    b.completion_mean if b else None,
                ),
                "safety_delta": (
                    b.thm49_safe_rate - a.thm49_safe_rate if a and b else None
                ),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# presentation helpers (shared by the CLI and scripts)
# ---------------------------------------------------------------------------


def _fmt(value: float | None, spec: str = ".2f") -> str:
    return "-" if value is None else format(value, spec)


#: Compact labels for the milestone column of ``stats_table``.
_MILESTONE_SHORT = {
    milestones.PHASE1_START: "p1",
    milestones.CONTRACT_ESCROWED: "esc",
    milestones.SECRET_RELEASED: "sec",
    milestones.PHASE2_COMPLETE: "p2",
    milestones.SETTLED: "end",
}


def _milestone_cell(means: Mapping[str, float] | None) -> str:
    if not means:
        return "-"
    return ",".join(
        f"{_MILESTONE_SHORT.get(kind, kind)}={mean:.1f}"
        for kind, mean in means.items()
    )


def stats_table(
    stats: Sequence[GroupStats], by: Sequence[str]
) -> tuple[list[str], list[list[object]]]:
    """``(headers, rows)`` for :func:`format_rows` over aggregate output."""
    headers = [*by, "runs", "ok", "all-Deal", "Thm4.9-safe", "t mean",
               "t p90", "bytes", "milestones", "failures"]
    rows: list[list[object]] = []
    for gs in stats:
        taxonomy = ",".join(
            f"{error}x{count}" for error, count in sorted(gs.failures.items())
        )
        rows.append(
            [
                *(value for _, value in gs.group),
                gs.runs,
                gs.ok,
                f"{gs.all_deal_rate:.0%}",
                f"{gs.thm49_safe_rate:.0%}",
                _fmt(gs.completion_mean, ".1f"),
                _fmt(gs.completion_p90, ".1f"),
                _fmt(gs.stored_bytes_mean, ".0f"),
                _milestone_cell(gs.milestone_means),
                taxonomy or "-",
            ]
        )
    return headers, rows


def compare_table(
    rows: Sequence[dict[str, Any]], engine_a: str, engine_b: str, by: str
) -> tuple[list[str], list[list[object]]]:
    """``(headers, rows)`` for :func:`format_rows` over compare output."""

    def pct(value: float | None) -> str:
        return "-" if value is None else f"{value:.0%}"

    headers = [
        by,
        f"runs {engine_a}", f"runs {engine_b}",
        f"all-Deal {engine_a}", f"all-Deal {engine_b}",
        f"safe {engine_a}", f"safe {engine_b}",
        f"t {engine_a}", f"t {engine_b}",
        f"safety Δ ({engine_b}-{engine_a})",
    ]
    table = []
    for row in rows:
        table.append(
            [
                row[by],
                row["runs"][0], row["runs"][1],
                pct(row["all_deal_rate"][0]), pct(row["all_deal_rate"][1]),
                pct(row["thm49_safe_rate"][0]), pct(row["thm49_safe_rate"][1]),
                _fmt(row["completion_mean"][0], ".1f"),
                _fmt(row["completion_mean"][1], ".1f"),
                pct(row["safety_delta"]),
            ]
        )
    return headers, table
