"""E38 — the warm path: run key and stored row of a memo-hit scenario.

With the shape memo warm (:mod:`repro.analysis.engine`), a covered
``herlihy`` scenario's report is a template copy; what is left per
scenario is its run key and its stored row.  This bench times those two
for fresh scenarios of the four fully covered shapes ``perfbench``'s
``sweep-analytic`` sweeps, in three arms:

* **reference** — the encodings the library shipped before, inlined
  here: the run key over ``canonical_json(canonical_dict())``, the shape
  key from a second fields build, and the row's
  ``json.dumps(entry, sort_keys=True)`` of a ``store_entry`` dict with
  its milestones recounted;
* **entry** — as shipped for the swap service and the fleet worker:
  :func:`run_key` (the canonical and shape texts from one fields build,
  the topology spliced in from its cached text) and ``entry_row`` of
  ``store_entry``'s entry, whose text is the shape template with this
  run's holes filled in;
* **recorded** — as shipped for a serial ``run_sweep(fast_path=True)``,
  whose recorded entry skips the report dict nothing reads.

Every arm writes the same bytes: the run keys and row texts of all
three are asserted equal first.  The synthesis between key and row is
the same in every arm and is not timed.  The arms alternate within each
of :data:`ROUNDS` rounds of :data:`PER_SHAPE` fresh scenarios per shape;
a speedup is the median of the per-round ratios (E32's sizing method),
so the machine's drift between rounds cancels.  The floor is frozen in
CI: the entry arm >= :data:`SPEEDUP_FLOOR` x the reference.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Callable

from _tables import emit_bench_json, emit_table

from repro.analysis.engine import synthesize_run
from repro.api.scenario import Scenario, _topology_text, canonical_json
from repro.api.sweep import RUN_KEY_SCHEMA, _recorded_entry, run_key, store_entry
from repro.crypto.hashing import sha256
from repro.lab.registry import get_family
from repro.lab.store import entry_row

ENGINE = "herlihy"
ROUNDS = 21
PER_SHAPE = 25
SPEEDUP_FLOOR = 1.5
#: The fully covered shapes perfbench's sweep-analytic workload sweeps.
ANALYTIC_SHAPES = (
    ("clique", {"n": 3}),
    ("clique", {"n": 5}),
    ("wheel", {"rim": 4}),
    ("erdos-renyi", {"n": 7, "p": 0.3}),
)
TOPOLOGIES = [get_family(family).generate(params, seed=1) for family, params in ANALYTIC_SHAPES]


def _scenarios(round_index: int) -> list[Scenario]:
    """Fresh scenario objects (no cached text) of every shape."""
    return [
        Scenario(
            topology,
            name=f"e38:{shape}#{round_index}.{copy}",
            seed=round_index * 1000 + copy,
            start_time=17,
        )
        for shape, topology in enumerate(TOPOLOGIES)
        for copy in range(PER_SHAPE)
    ]


# -- the reference: the encodings as they were -------------------------------


def _reference_keys(scenario: Scenario) -> str:
    """The run key over ``canonical_json(canonical_dict())``, and the
    shape key from its own fields build, left where the fast path reads
    it."""
    fields = scenario._canonical_fields()
    del fields["seed"]
    object.__setattr__(
        scenario, "_shape_text", canonical_json(fields) + _topology_text(scenario.topology)
    )
    payload = {"schema": RUN_KEY_SCHEMA, "engine": ENGINE, "scenario": scenario.canonical_dict()}
    return sha256(canonical_json(payload).encode()).hex()


def _reference_row(key: str, report) -> tuple:
    """``entry_row`` of a ``store_entry`` dict, milestones recounted."""
    entry = {"ok": True, "report": report.to_dict(), "milestones": report.milestone_counts()}
    data = entry["report"]
    return (key, data["engine"], data["scenario"]["name"], 1, 0.0, json.dumps(entry, sort_keys=True))


# -- the arms ----------------------------------------------------------------

ARMS: dict[str, tuple[Callable, Callable]] = {
    "reference": (_reference_keys, _reference_row),
    "entry": (
        lambda scenario: run_key(ENGINE, scenario),
        lambda key, report: entry_row(key, store_entry(report), 0.0),
    ),
    "recorded": (
        lambda scenario: run_key(ENGINE, scenario),
        lambda key, report: entry_row(key, _recorded_entry(report), 0.0),
    ),
}


def _run(arm: str, scenarios: list[Scenario]) -> tuple[float, list[str], list[tuple]]:
    """Seconds spent keying and encoding ``scenarios`` in ``arm`` (the
    synthesis between is not timed), the keys and the rows."""
    keys_of, row_of = ARMS[arm]
    begun = time.perf_counter()
    keys = [keys_of(scenario) for scenario in scenarios]
    keyed = time.perf_counter()
    reports = [synthesize_run(ENGINE, scenario) for scenario in scenarios]
    for report in reports:
        report.wall_seconds = 0.25
    synthesized = time.perf_counter()
    rows = [row_of(key, report) for key, report in zip(keys, reports)]
    ended = time.perf_counter()
    return (keyed - begun) + (ended - synthesized), keys, rows


def test_warm_path_meets_its_floor():
    for arm in ARMS:  # warm every shape memo and the topology texts
        _run(arm, _scenarios(-1))
    outputs = {arm: _run(arm, _scenarios(-2))[1:] for arm in ARMS}
    assert outputs["entry"] == outputs["reference"]
    assert outputs["recorded"] == outputs["reference"]

    seconds: dict[str, list[float]] = {arm: [] for arm in ARMS}
    for index in range(ROUNDS):
        order = list(ARMS) if index % 2 == 0 else list(reversed(ARMS))
        for arm in order:
            seconds[arm].append(_run(arm, _scenarios(index))[0])
    per_scenario = len(TOPOLOGIES) * PER_SHAPE
    us = {arm: round(statistics.median(s) / per_scenario * 1e6, 2) for arm, s in seconds.items()}
    speedup = {
        arm: round(statistics.median(r / s for r, s in zip(seconds["reference"], values)), 3)
        for arm, values in seconds.items()
        if arm != "reference"
    }

    emit_table(
        "E38",
        "The warm path: run key + stored row per memo-hit scenario",
        ["arm", "µs / scenario", "speedup vs reference"],
        [[arm, f"{us[arm]:.1f}", f"{speedup[arm]:.2f}x" if arm in speedup else "-"] for arm in ARMS],
        notes=(
            f"{len(TOPOLOGIES)} covered shapes x {PER_SHAPE} fresh scenarios per "
            f"round, {ROUNDS} rounds, arms alternating; speedup is the median of "
            "per-round ratios.  Keys and row texts asserted equal across arms.  "
            f"Floor: entry >= {SPEEDUP_FLOOR}x the reference."
        ),
    )
    emit_bench_json(
        "E38",
        [],
        aggregates={
            "rounds": ROUNDS,
            "per_shape": PER_SHAPE,
            "shapes": len(TOPOLOGIES),
            "us_per_scenario": us,
            "speedup": speedup,
            "speedup_floor": SPEEDUP_FLOOR,
        },
    )
    assert speedup["entry"] >= SPEEDUP_FLOOR, speedup
