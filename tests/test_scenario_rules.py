"""One rule book for scenario validity, read alike by every front end.

:mod:`repro.analysis.structure` states each precondition of a run once,
as a row of its rule table.  This matrix builds one scenario that breaks
each error rule and holds every engine to it:

* ``Engine.run`` raises exactly when
  :func:`~repro.analysis.protocol.analyze_scenario` is ``invalid``, and
  the analyzer's first error carries the raised message; the engine
  raises the rule's own exception (class and message) unless a feature
  it does not honour is refused first;
* :func:`~repro.analysis.protocol.check_submission`, ``POST /v1/runs``
  and :func:`~repro.analysis.engine.resolve_report` with the fast path
  refuse with the same message;
* ``analyze_scenario`` never raises.

The type rules (the payload decoder's field types, for a scenario built
in Python) are cases of the same matrix: every engine refuses them
first.  The construction rules (what ``Scenario`` itself refuses) are held the
same way against ``Scenario.from_dict`` and the gate.  ``CASES`` is
written out here, not read from the table, so a changed rule shows up
as a failing case.
"""

from __future__ import annotations

import re

import pytest

from repro.analysis.engine import resolve_report
from repro.analysis.protocol import VERDICT_INVALID, analyze_scenario, check_submission
from repro.analysis.structure import (
    CONSTRUCTION_RULES,
    NOT_STRONGLY_CONNECTED,
    ONE_LEADER_NOT_STRONGLY_CONNECTED,
    RULES,
    TYPE_RULES,
    check_scenario,
)
from repro.api.engine import get_engine, list_engines
from repro.api.scenario import Scenario
from repro.api.sweep import Sweep, run_sweep
from repro.digraph.digraph import Digraph
from repro.digraph.generators import chain_digraph, complete_digraph, triangle
from repro.errors import (
    ClearingError,
    DigraphError,
    NotFeedbackVertexSetError,
    NotStronglyConnectedError,
    ReproError,
    ScenarioError,
    SignatureError,
    SimulationError,
    UnknownStrategyError,
)
from repro.serve.client import BackgroundServer
from repro.serve.service import ServiceConfig, SwapService
from repro.sim.faults import FaultPlan

#: label -> (scenario, its rule's code, the exception ``herlihy`` raises,
#: a regex its message matches).
CASES: dict[str, tuple[Scenario, str, type[ReproError], str]] = {
    "unknown-strategy": (
        Scenario(triangle(), strategies={"Alice": "no-such"}),
        "strategies/unknown-name", UnknownStrategyError,
        r"unknown strategy 'no-such'; registered strategies: .*withhold-secret",
    ),
    "no-arcs": (
        Scenario(Digraph(["Alice", "Bob"], [])),
        "topology/no-arcs", DigraphError, r"a swap digraph needs at least one arc$",
    ),
    "not-strongly-connected": (
        Scenario(chain_digraph(3)),
        "digraph/not-strongly-connected", NotStronglyConnectedError,
        re.escape(NOT_STRONGLY_CONNECTED) + "$",
    ),
    "fractional-delta": (
        Scenario(triangle(), delta=1.5),
        "timing/bad-delta", ScenarioError, r"delta must be an integer tick count, got 1\.5$",
    ),
    "boolean-delta": (
        Scenario(triangle(), delta=True),
        "timing/bad-delta", ScenarioError, r"delta must be an integer tick count, got True$",
    ),
    "fractional-slack": (
        Scenario(triangle(), timeout_slack=0.5),
        "timing/bad-slack", ScenarioError, r"timeout_slack must be an integer tick count",
    ),
    "fractional-start": (
        Scenario(triangle(), start_time=2.5),
        "timing/bad-start", ScenarioError, r"start_time must be an integer tick count",
    ),
    "fractional-diam": (
        Scenario(triangle(), diam_override=2.5),
        "timing/bad-diam", ScenarioError, r"diam_override must be an integer tick count",
    ),
    "zero-delta": (
        Scenario(triangle(), delta=0),
        "timing/bad-delta", SimulationError, r"delta must be positive$",
    ),
    "negative-fraction": (
        Scenario(triangle(), reaction_fraction=-1.0),
        "timing/bad-fraction", SimulationError,
        r"reaction_fraction must be a non-negative Δ fraction, got -1\.0$",
    ),
    "text-fraction": (
        Scenario(triangle(), action_fraction="x"),
        "timing/bad-fraction", SimulationError,
        r"action_fraction must be a non-negative Δ fraction, got 'x'$",
    ),
    "unknown-strategy-party": (
        Scenario(triangle(), strategies={"Zoe": "withhold-secret"}),
        "strategies/unknown-party", SimulationError, r"strategy for unknown party 'Zoe'$",
    ),
    "unknown-fault-party": (
        Scenario(triangle(), faults=FaultPlan().crash("Zoe", at_time=5)),
        "faults/unknown-party", SimulationError, r"fault for unknown party 'Zoe'$",
    ),
    "unknown-scheme": (
        Scenario(triangle(), scheme_name="nope"),
        "engine/unknown-scheme", SignatureError,
        r"unknown scheme 'nope'; known schemes: ecdsa-secp256k1, hmac-registry, lamport$",
    ),
    "lamport-many-leaders": (
        Scenario(triangle(), leaders=("Alice", "Bob"), scheme_name="lamport"),
        "engine/one-time-scheme", SignatureError, r"Lamport keys are one-time",
    ),
    "duplicate-leader": (
        Scenario(triangle(), leaders=("Alice", "Alice")),
        "leaders/duplicate", ClearingError, r"duplicate leader$",
    ),
    "no-leader": (
        Scenario(triangle(), leaders=()),
        "leaders/empty", ClearingError, r"at least one leader is required$",
    ),
    "unknown-leader": (
        Scenario(triangle(), leaders=("Zoe",)),
        "leaders/unknown-vertex", ClearingError, r"leader 'Zoe' is not a party$",
    ),
    "leader-not-fvs": (
        Scenario(complete_digraph(3), leaders=("P00",)),
        "leaders/not-feedback-vertex-set", NotFeedbackVertexSetError,
        r"\['P00'\] is not a feedback vertex set",
    ),
    "negative-start": (
        Scenario(triangle(), start_time=-1),
        "timing/bad-start", ClearingError, r"start_time must be non-negative$",
    ),
    "zero-diam": (
        Scenario(triangle(), diam_override=0),
        "timing/bad-diam", ClearingError, r"diam must be at least 1$",
    ),
    "negative-slack": (
        Scenario(triangle(), timeout_slack=-1),
        "timing/bad-slack", ClearingError, r"timeout_slack must be non-negative$",
    ),
    # Built in Python with a type the payload decoder refuses: refused in
    # the decoder's words, before anything else, by every engine.
    "list-scheme": (
        Scenario(triangle(), scheme_name=["x"]),
        "payload/bad-type", ScenarioError, r"scheme_name must be a str, got \['x'\]$",
    ),
    "text-exact-limit": (
        Scenario(triangle(), exact_limit="x", diam_override=3),
        "payload/bad-type", ScenarioError, r"exact_limit must be a int, got 'x'$",
    ),
    "boolean-seed": (
        Scenario(triangle(), seed=True),
        "payload/bad-type", ScenarioError, r"seed must be a int, got True$",
    ),
    "number-name": (
        Scenario(triangle(), name=5),
        "payload/bad-type", ScenarioError, r"name must be a str, got 5$",
    ),
    "integer-broadcast": (
        Scenario(triangle(), use_broadcast=1),
        "payload/bad-type", ScenarioError, r"use_broadcast must be a bool, got 1$",
    ),
}

#: label -> (a raw payload ``Scenario`` refuses, the rule's code, a regex
#: of its ``ScenarioError`` message).
CONSTRUCTION_CASES: dict[str, tuple[dict, str, str]] = {
    "delays-not-a-dict": (
        {"chain_delays": [1]}, "chain-delays/not-a-dict",
        r"chain_delays must map 'head->tail' .* got list$",
    ),
    "delay-label": (
        {"chain_delays": {"nope": 1}}, "chain-delays/bad-label",
        r"chain_delays key 'nope' is not an arc label",
    ),
    "delay-arc": (
        {"chain_delays": {"X->Y": 1}}, "chain-delays/unknown-arc",
        r"chain_delays key 'X->Y' names no arc of the topology; arcs: ",
    ),
    "delay-value": (
        {"chain_delays": {"Alice->Bob": -1}}, "chain-delays/bad-delay",
        r"chain delay for 'Alice->Bob' must be a non-negative tick count, got -1$",
    ),
    "strategy-name-type": (
        {"strategies": {"Alice": 5}}, "strategies/not-a-name",
        r"strategy for 'Alice' must be a registered name, got 5$",
    ),
}

ENGINES = sorted(list_engines())


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(SwapService(ServiceConfig(rate=0.0))) as bg:
        yield bg


def first_error(diagnostics):
    return next(d for d in diagnostics if d.severity == "error")


def test_every_error_rule_has_a_case():
    codes = {rule.code for rule in (*TYPE_RULES, *RULES) if rule.severity == "error"}
    assert codes == {code for _, code, _, _ in CASES.values()}
    assert {rule.code for rule in CONSTRUCTION_RULES} == {
        code for _, code, _ in CONSTRUCTION_CASES.values()
    }
    for label, (scenario, code, _, _) in CASES.items():
        assert code in {d.code for d in check_scenario(scenario)}, label


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("label", sorted(CASES))
def test_rule_is_refused_alike_everywhere(server, label, engine):
    scenario, code, expected, pattern = CASES[label]
    analysis = analyze_scenario(scenario, engine=engine)
    try:
        get_engine(engine).run(scenario)
    except ReproError as refusal:
        raised = refusal
    else:
        raised = None
    gate = check_submission(scenario.to_dict(), engine=engine)
    status, _, doc = server.client().request(
        "POST", "/v1/runs", {"engine": engine, "scenario": scenario.to_dict()}
    )
    if raised is None:
        assert analysis.verdict != VERDICT_INVALID
        assert not any(d.severity == "error" for d in gate)
        assert status in (200, 202)
        return
    message = str(raised)
    assert analysis.verdict == VERDICT_INVALID
    first = first_error(analysis.diagnostics)
    assert first.message == message
    assert first_error(gate).message == message
    assert status == 400 and doc["error"] == "invalid-scenario"
    assert next(d for d in doc["diagnostics"] if d["severity"] == "error")["message"] == message
    with pytest.raises(ReproError) as fast:
        resolve_report(engine, scenario, fast_path=True)
    assert type(fast.value) is type(raised) and str(fast.value) == message
    if first.code != code:
        # A feature the engine does not honour is refused before the rule.
        assert first.code.startswith("engine/") and type(raised) is ScenarioError
        assert engine not in ("herlihy", "multiswap")
        return
    assert type(raised) is expected
    if code == "digraph/not-strongly-connected" and "one-leader" in get_engine(engine).honours:
        pattern = re.escape(ONE_LEADER_NOT_STRONGLY_CONNECTED) + "$"
    assert re.match(pattern, message), message


def test_every_case_is_refused_by_every_engine():
    for label, (scenario, *_) in CASES.items():
        for engine in ENGINES:
            with pytest.raises(ReproError):
                get_engine(engine).run(scenario)


@pytest.mark.parametrize("label", sorted(CONSTRUCTION_CASES))
def test_construction_rule_is_refused_alike_everywhere(server, label):
    fields, code, pattern = CONSTRUCTION_CASES[label]
    payload = {**Scenario(triangle()).to_dict(), **fields}
    with pytest.raises(ScenarioError) as refused:
        Scenario.from_dict(payload)
    message = str(refused.value)
    assert re.match(pattern, message), message
    for engine in ENGINES:
        gate = check_submission(payload, engine=engine)
        assert (first_error(gate).code, first_error(gate).message) == (code, message)
    status, _, doc = server.client().request(
        "POST", "/v1/runs", {"engine": "herlihy", "scenario": payload}
    )
    assert status == 400 and doc["diagnostics"][0]["message"] == message


def test_fast_path_sweep_stores_each_refusal_and_finishes_the_rest():
    refused = ("duplicate-leader", "negative-fraction", "text-fraction")
    sweep = Sweep("rules")
    for label in refused:
        sweep.add("herlihy", CASES[label][0])
    for seed in (1, 2):
        sweep.add("herlihy", Scenario(triangle(), seed=seed))
    failures = {}
    for fast_path in (False, True):
        report = run_sweep(sweep, parallel=False, fast_path=fast_path)
        assert len(report.reports) == 2
        failures[fast_path] = [(f.error_type, f.message) for f in report.failures]
    assert failures[True] == failures[False]
    assert [kind for kind, _ in failures[True]] == [
        CASES[label][2].__name__ for label in refused
    ]


@pytest.mark.parametrize("label", ["boolean-seed", "number-name"])
def test_fast_path_refuses_a_mistyped_field_with_its_shape_warm(label):
    """The shape memo's key leaves the name and the seed out: a warm
    shape must not answer a value the engine refuses."""
    scenario, _, expected, pattern = CASES[label]
    resolve_report("herlihy", Scenario(triangle(), seed=1), fast_path=True)
    with pytest.raises(expected, match=pattern):
        resolve_report("herlihy", scenario, fast_path=True)


def test_fast_path_service_runs_what_the_analyzer_refuses():
    """The analytic tier declines an invalid scenario; the engine's own
    refusal settles the job instead of escaping from ``submit``."""
    import asyncio

    async def run():
        service = SwapService(ServiceConfig(rate=0.0, fast_path=True))
        await service.start()
        result = service.submit(CASES["duplicate-leader"][0])
        assert result.status == "accepted"
        await service.wait(result.key, timeout=30)
        entry = service.store.get(result.key)
        await service.stop()
        return entry

    entry = asyncio.run(run())
    assert (entry["ok"], entry["error_type"], entry["message"]) == (
        False, "ClearingError", "duplicate leader",
    )
