"""Fresh store entries are built once, the same way, by every front end.

``run_sweep``, the fleet worker and the swap service all store a fresh
run through :func:`repro.api.sweep.store_entry` and a refused one
through :func:`repro.api.sweep.failure_entry`: an analytic, a
simulate-only and a refused scenario must come out as the same entry
JSON (modulo ``wall_seconds``) whichever front end resolved them.  ``run_sweep``
hands the reports it synthesized inline straight back instead of
decoding their entries, so those reports must equal that decoding.
The fast path's cheap gate (:func:`coverage_ceiling`) must agree with
the full analysis it lets the fast path skip.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.analysis import engine as analysis_engine
from repro.analysis.engine import analyze_for_fast_path
from repro.analysis.protocol import (
    COVERAGE_FULL,
    COVERAGE_NONE,
    COVERAGE_VERDICT,
    analyze_scenario,
    coverage_ceiling,
)
from repro.api.report import RunReport
from repro.api.scenario import Scenario
from repro.api.sweep import Sweep, run_key, run_sweep
from repro.digraph.digraph import Digraph
from repro.digraph.generators import cycle_digraph, triangle, two_leader_triangle
from repro.digraph.paths import is_strongly_connected
from repro.fleet import FleetCoordinator, FleetWorker
from repro.lab.registry import get_family, list_families
from repro.lab.store import SqliteStore, open_store
from repro.serve.service import ServiceConfig, SwapService
from repro.sim.faults import Crash, CrashPoint, FaultPlan

ANALYTIC = Scenario(triangle(), seed=5, name="entries:analytic")
SIMULATED = Scenario(cycle_digraph(4), seed=5, name="entries:jittered", timing="jittered")
# No single vertex is a feedback vertex set: the engine refuses it.
FAILING = Scenario(two_leader_triangle(), seed=5, name="entries:refused")
ITEMS = [("herlihy", ANALYTIC), ("herlihy", SIMULATED), ("single-leader", FAILING)]


def _normalised(entry: dict) -> str:
    data = json.loads(json.dumps(entry))
    if data["ok"]:
        data["report"]["wall_seconds"] = 0.0
    return json.dumps(data, sort_keys=True)


def _swept() -> dict[str, dict]:
    store = SqliteStore(":memory:")
    sweep = Sweep("entries")
    for engine, scenario in ITEMS:
        sweep.add(engine, scenario)
    run_sweep(sweep, store=store, parallel=False, fast_path=True)
    return {key: store.get(key) for key in _keys()}


def _drained(tmp_path) -> dict[str, dict]:
    path = tmp_path / "fleet.sqlite"
    with FleetCoordinator(path) as coordinator:
        coordinator.enqueue(ITEMS)
    with FleetWorker(path, worker_id="entries-w0", fast_path=True) as worker:
        worker.run()
    with open_store(str(path)) as store:
        return {key: store.get(key) for key in _keys()}


def _served() -> dict[str, dict]:
    async def serve() -> dict[str, dict]:
        service = SwapService(ServiceConfig(rate=0.0, fast_path=True))
        await service.start()
        for engine, scenario in ITEMS:
            result = service.submit(scenario, engine=engine)
            await service.wait(result.key, timeout=30)
        entries = {key: service.store.get(key) for key in _keys()}
        await service.stop()
        return entries

    return asyncio.run(serve())


def _keys() -> list[str]:
    return [run_key(engine, scenario) for engine, scenario in ITEMS]


def test_every_front_end_stores_the_same_entries(tmp_path):
    swept, drained, served = _swept(), _drained(tmp_path), _served()
    analytic_key, simulated_key, failing_key = _keys()
    assert swept[analytic_key]["report"]["extra"] == {"path": "analytic"}
    assert swept[simulated_key]["report"]["extra"] == {"path": "simulated"}
    assert set(swept[failing_key]) == {"ok", "engine", "scenario", "error_type", "message"}
    assert swept[failing_key]["ok"] is False
    assert swept[failing_key]["engine"] == "single-leader"
    for key in (analytic_key, simulated_key):
        assert set(swept[key]) == {"ok", "report", "milestones"}
    for key in _keys():
        assert _normalised(drained[key]) == _normalised(swept[key]), key
        assert _normalised(served[key]) == _normalised(swept[key]), key


def _family_sweep() -> Sweep:
    sweep = Sweep("inline", base_seed=11)
    for name in list_families():
        topology = get_family(name).generate({}, seed=2)
        if not isinstance(topology, Digraph) or not is_strongly_connected(topology):
            continue
        for seed in (1, 2):
            sweep.add("herlihy", Scenario(topology, seed=seed, name=f"inline:{name}:{seed}"))
    sweep.add("herlihy", SIMULATED)
    sweep.add("2pc", Scenario(triangle(), seed=1, name="inline:2pc"))
    return sweep


def test_inline_reports_equal_their_decoded_entries():
    store = SqliteStore(":memory:")
    sweep = _family_sweep()
    report = run_sweep(sweep, store=store, parallel=False, fast_path=True)
    assert report.analytic > 10 and report.executed >= 2 and not report.failures
    for (engine, scenario), returned in zip(sweep.items(), report.reports):
        decoded = RunReport.from_dict(store.get(run_key(engine, scenario))["report"])
        assert returned == decoded, scenario.name
        assert json.dumps(returned.to_dict()) == json.dumps(decoded.to_dict()), scenario.name


_CEILING_CASES = [
    (Scenario(triangle()), COVERAGE_FULL),
    (Scenario(triangle(), timing="stragglers"), COVERAGE_NONE),
    (Scenario(triangle(), use_broadcast=True), COVERAGE_NONE),
    (Scenario(triangle(), strategies={"Carol": "last-moment-unlock"}), COVERAGE_NONE),
    (Scenario(triangle(), faults=FaultPlan(crashes={"Carol": Crash(at_time=50)})), COVERAGE_NONE),
    (
        Scenario(triangle(), faults=FaultPlan().crash("Carol", at_point=CrashPoint.BEFORE_PHASE_TWO)),
        COVERAGE_VERDICT,
    ),
    # Within the model, but the deadlines are infeasible: the analysis
    # comes out below its ceiling, never above it.
    (Scenario(triangle(), delta=50, reaction_fraction=0.4, action_fraction=0.5), COVERAGE_FULL),
]


@pytest.mark.parametrize("scenario, ceiling", _CEILING_CASES)
def test_coverage_ceiling_bounds_the_analysis(scenario, ceiling):
    assert coverage_ceiling(scenario) == ceiling
    assert coverage_ceiling(scenario, engine="2pc") == COVERAGE_NONE
    coverage = analyze_scenario(scenario).coverage
    order = (COVERAGE_NONE, COVERAGE_VERDICT, COVERAGE_FULL)
    assert order.index(coverage) <= order.index(ceiling)
    if ceiling != COVERAGE_FULL:
        assert coverage == ceiling


def test_fast_path_gate_skips_analysis_below_full(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("analyze_scenario ran for a simulate-only scenario")

    monkeypatch.setattr(analysis_engine, "analyze_scenario", never)
    before = len(analysis_engine._ANALYSES)
    for scenario, ceiling in _CEILING_CASES:
        if ceiling != COVERAGE_FULL:
            assert analyze_for_fast_path(scenario, "herlihy") is None
    assert len(analysis_engine._ANALYSES) == before
