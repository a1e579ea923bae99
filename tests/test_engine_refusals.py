"""What each engine accepts, refused alike by every front end.

Every engine declares the ``params`` keys it reads and the optional
scenario features it honours (:attr:`Engine.params`,
:attr:`Engine.honours`); :meth:`Engine.refusals` is the one place that
turns the declaration into diagnostics.  This matrix holds every engine
against every feature:

* a feature the engine does not honour is refused the same way by
  ``Engine.run``, :func:`~repro.analysis.protocol.analyze_scenario`
  (verdict ``invalid``, carrying the exception's message),
  :func:`~repro.analysis.protocol.check_submission` (the serve gate)
  and :func:`~repro.analysis.engine.resolve_report` with and without
  the fast path;
* a feature the engine honours runs, is not called invalid, and changes
  the report against the engine's default run.

``HONOURED`` is written out here, not read from the engines, so a
change to a declaration shows up as a failing case.
"""

from __future__ import annotations

import pytest

from repro.analysis.engine import resolve_report
from repro.analysis.protocol import (
    VERDICT_INVALID,
    analyze_scenario,
    check_submission,
)
from repro.api.engine import get_engine, list_engines
from repro.api.scenario import Scenario
from repro.digraph.generators import triangle
from repro.digraph.multigraph import MultiDigraph
from repro.errors import ScenarioError
from repro.sim.faults import CrashPoint, FaultPlan

#: One scenario per optional feature, each setting it to a non-default
#: value on the triangle (Alice -> Bob -> Carol -> Alice).
FEATURES: dict[str, Scenario] = {
    "params": Scenario(triangle(), params={"no_such_key": 1}),
    "strategies": Scenario(triangle(), strategies={"Alice": "refuse-to-publish"}),
    "faults": Scenario(
        triangle(),
        faults=FaultPlan().crash("Carol", at_point=CrashPoint.BEFORE_PHASE_TWO),
    ),
    "parallel-arcs": Scenario(MultiDigraph(
        ["Alice", "Bob", "Carol"],
        [("Alice", "Bob"), ("Alice", "Bob"), ("Bob", "Carol"), ("Carol", "Alice")],
    )),
    "one-leader": Scenario(triangle(), leaders=("Bob",)),
    "many-leaders": Scenario(triangle(), leaders=("Alice", "Bob")),
    "diam_override": Scenario(triangle(), diam_override=12),
    "timeout_slack": Scenario(triangle(), timeout_slack=10),
    "use_broadcast": Scenario(triangle(), use_broadcast=True),
    "scheme_name": Scenario(triangle(), scheme_name="lamport"),
}

_HASHKEY = {
    "strategies", "faults", "one-leader", "many-leaders",
    "diam_override", "timeout_slack", "use_broadcast", "scheme_name",
}

#: The features each engine honours (no engine reads ``no_such_key``).
HONOURED: dict[str, set[str]] = {
    "herlihy": _HASHKEY,
    "multiswap": _HASHKEY | {"parallel-arcs"},
    "single-leader": {"faults", "one-leader"},
    "naive-timelock": {"faults", "one-leader"},
    "sequential-trust": set(),
    "2pc": set(),
}

CASES = [(engine, feature) for engine in sorted(HONOURED) for feature in FEATURES]


def observed(report) -> dict:
    """The report minus the fields every run stamps differently."""
    data = report.to_dict()
    for key in ("scenario", "wall_seconds"):
        data.pop(key)
    return data


def test_matrix_covers_every_engine():
    assert sorted(HONOURED) == sorted(list_engines())


@pytest.mark.parametrize(
    "engine, feature", [c for c in CASES if c[1] not in HONOURED[c[0]]]
)
def test_unhonoured_feature_is_refused_everywhere(engine, feature):
    scenario = FEATURES[feature]
    with pytest.raises(ScenarioError) as refused:
        get_engine(engine).run(scenario)
    message = str(refused.value)

    analysis = analyze_scenario(scenario, engine=engine)
    assert analysis.verdict == VERDICT_INVALID
    assert message in [d.message for d in analysis.diagnostics if d.severity == "error"]

    gate = check_submission(scenario.to_dict(), engine=engine)
    assert message in [d.message for d in gate if d.severity == "error"]

    for fast_path in (False, True):
        with pytest.raises(ScenarioError) as again:
            resolve_report(engine, scenario, fast_path=fast_path)
        assert str(again.value) == message


@pytest.mark.parametrize(
    "engine, feature", [c for c in CASES if c[1] in HONOURED[c[0]]]
)
def test_honoured_feature_runs_and_changes_the_report(engine, feature):
    scenario = FEATURES[feature]
    assert analyze_scenario(scenario, engine=engine).verdict != VERDICT_INVALID
    adapter = get_engine(engine)
    assert observed(adapter.run(scenario)) != observed(adapter.run(Scenario(triangle())))


def test_fast_path_refuses_what_the_engine_refuses():
    """A ``herlihy`` scenario carrying another engine's param is fully
    covered by every other measure; the closed form must not answer it."""
    scenario = Scenario(triangle(), params={"attacker": "Bob"})
    with pytest.raises(ScenarioError, match=r"does not recognise params \['attacker'\]"):
        resolve_report("herlihy", scenario, fast_path=True)


def test_unknown_engine_adds_no_engine_diagnostic():
    """The gate leaves an unregistered name to the lookup that reports it."""
    assert check_submission(Scenario(triangle()).to_dict(), engine="warp-drive") == ()
