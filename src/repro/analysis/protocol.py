"""The static scenario verifier: diagnose, then predict.

:func:`analyze_scenario` is the one entry point (surfaced as
``Scenario.analyze()``, the ``lab check`` CLI, and the ``repro.serve``
pre-admission gate).  It layers the structural diagnostics of
:mod:`repro.analysis.structure` under the closed-form predictor of
:mod:`repro.analysis.predict` and reports how much of the run it could
characterise without executing it:

``coverage="full"``
    Structurally conforming, uniform timing, no faults, no deviating
    strategies: the full Fig. 3 profile is attached as a
    :class:`~repro.analysis.predict.Prediction` and the verdict is
    ``all-deal`` (Theorem 4.2).  The simulator must agree byte-for-byte
    — ``tests/test_analysis_parity.py`` and ``lab check --verify``
    enforce exactly that.

``coverage="verdict"``
    Phase-crash-only fault plans: event times depend on which milestone
    the victim dies at, but the end state does not — a crashed party
    never reaches all-Deal, so the verdict ``not-all-deal`` is still
    decidable statically.

``coverage="none"``
    Everything else — non-uniform timing, deviating strategies,
    broadcast mode, timed crashes, engines the closed-form model has
    not been validated against.  Verdict ``unsupported`` (or
    ``invalid`` when structural errors were found).

Verdict ``invalid`` means an ``error`` diagnostic: one of
:meth:`Engine.refusals <repro.api.engine.Engine.refusals>` — what the
engine does not honour, then the errors of the
:mod:`repro.analysis.structure` rules that bind it — which are the very
refusals ``Engine.open`` raises.  The diagnostics list the table's
warnings first and then those refusals, so the first error is the
exception the engine raises, word for word, and the analyzer, the fast
path and the serve gate refuse exactly what the engine refuses.

The closed-form fast path (:mod:`repro.analysis.engine`) answers only
``coverage="full"`` scenarios, and must match the simulator byte for
byte on every one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any

from repro.analysis.diagnostics import Diagnostic, has_errors
from repro.analysis.predict import Prediction, predict
from repro.analysis.structure import (
    ScenarioFacts,
    check_scenario,
    construction_refusals,
    decode_scenario,
    rule_warnings,
)
from repro.api.engine import get_engine
from repro.api.scenario import Scenario
from repro.errors import UnknownEngineError
from repro.sim.timing import is_default_timing

COVERAGE_FULL = "full"
COVERAGE_VERDICT = "verdict"
COVERAGE_NONE = "none"

VERDICT_ALL_DEAL = "all-deal"
VERDICT_NOT_ALL_DEAL = "not-all-deal"
VERDICT_UNSUPPORTED = "unsupported"
VERDICT_INVALID = "invalid"

#: Every verdict the analyzer can return, most informative first.
VERDICTS: tuple[str, ...] = (
    VERDICT_ALL_DEAL,
    VERDICT_NOT_ALL_DEAL,
    VERDICT_UNSUPPORTED,
    VERDICT_INVALID,
)

#: Engines the closed-form model is validated against (simulator parity
#: is asserted in CI; extend only with a matching parity test).
PREDICTABLE_ENGINES: tuple[str, ...] = ("herlihy",)


@dataclass(frozen=True)
class ScenarioAnalysis:
    """Everything the verifier can say about a scenario without running it."""

    engine: str
    coverage: str
    verdict: str
    diagnostics: tuple[Diagnostic, ...]
    prediction: Prediction | None

    def ok(self) -> bool:
        """True when no ``error``-severity diagnostic was raised."""
        return not has_errors(self.diagnostics)

    def to_dict(self) -> dict[str, Any]:
        return {
            "engine": self.engine,
            "coverage": self.coverage,
            "verdict": self.verdict,
            "ok": self.ok(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "prediction": (
                self.prediction.to_dict() if self.prediction is not None else None
            ),
        }


def coverage_ceiling(scenario: Scenario, engine: str = "herlihy") -> str:
    """The best coverage :func:`analyze_scenario` can give ``scenario``.

    A cheap test of the scenario's run model only — no structural
    checks: :data:`COVERAGE_NONE` when the Fig. 3 model does not describe
    how ``engine`` runs it (an engine outside :data:`PREDICTABLE_ENGINES`,
    non-default timing, broadcast, deviating strategies, or a crash at a
    fixed time), :data:`COVERAGE_VERDICT` when every crash halts at a
    protocol milestone, else :data:`COVERAGE_FULL`.  The analysis itself
    may still come out lower (invalid structure, infeasible deadlines),
    never higher.
    """
    if (
        engine not in PREDICTABLE_ENGINES
        or not is_default_timing(scenario.timing)
        or scenario.use_broadcast
        or scenario.strategies
    ):
        return COVERAGE_NONE
    crashes = scenario.faults.crashes.values()
    if not crashes:
        return COVERAGE_FULL
    if all(crash.at_point is not None and crash.at_time is None for crash in crashes):
        return COVERAGE_VERDICT
    return COVERAGE_NONE


def _diagnose(scenario: Scenario, engine: str) -> list[Diagnostic]:
    """The table's warnings, then what ``engine`` refuses
    (:meth:`~repro.api.engine.Engine.refusals`: its declared refusals,
    then the table's errors) — so the first error is the one the engine
    raises.  Both read one :class:`~repro.analysis.structure.ScenarioFacts`,
    so each graph fact is asked for once.  An unregistered engine name
    gets the whole table: its lookup fails when the run is submitted."""
    try:
        adapter = get_engine(engine)
    except UnknownEngineError:
        return list(check_scenario(scenario))
    facts = ScenarioFacts(scenario, adapter.honours)
    return [*rule_warnings(facts), *(d for d, _ in adapter.findings(facts))]


def analyze_scenario(scenario: Scenario, engine: str = "herlihy") -> ScenarioAnalysis:
    """Statically analyze ``scenario`` as ``engine`` would run it.

    Never raises on a bad scenario — problems come back as diagnostics
    and the verdict degrades (see the module docstring for the
    coverage/verdict taxonomy).
    """
    diagnostics = _diagnose(scenario, engine)
    prediction = None
    if has_errors(diagnostics):
        coverage, verdict = COVERAGE_NONE, VERDICT_INVALID
    elif (ceiling := coverage_ceiling(scenario, engine)) == COVERAGE_NONE:
        coverage, verdict = COVERAGE_NONE, VERDICT_UNSUPPORTED
    elif ceiling == COVERAGE_VERDICT:
        # A party that halts at a protocol milestone can never end Deal,
        # so the all-Deal verdict is decidable even though event times
        # depend on which milestone the victim dies at.
        coverage, verdict = COVERAGE_VERDICT, VERDICT_NOT_ALL_DEAL
    else:
        prediction, advisories = predict(scenario)
        diagnostics.extend(advisories)
        if prediction.deadline_feasible:
            coverage, verdict = COVERAGE_FULL, VERDICT_ALL_DEAL
        else:
            # The profile is still the best static estimate, but the
            # replay sends an unlock at or past its hashkey's expiry,
            # where the simulator refunds instead — don't certify the
            # verdict.
            coverage, verdict = COVERAGE_NONE, VERDICT_UNSUPPORTED
    return ScenarioAnalysis(
        engine=engine,
        coverage=coverage,
        verdict=verdict,
        diagnostics=tuple(diagnostics),
        prediction=prediction,
    )


def check_submission(data: Any, engine: str = "herlihy") -> tuple[Diagnostic, ...]:
    """Diagnose a raw submission payload end to end (the serve gate).

    Decodes the payload (:func:`~repro.analysis.structure.decode_scenario`),
    then checks what decoded against the construction rules and, when
    it constructs, diagnoses the scenario as :func:`analyze_scenario`
    does.  Returns every diagnostic found — the caller rejects on any
    ``error`` severity.
    """
    fields, problems = decode_scenario(data)
    if fields is None:
        return tuple(problems)
    scenario = SimpleNamespace(
        topology=fields["topology"],
        chain_delays=fields.get("chain_delays", {}),
        strategies=fields.get("strategies", {}),
    )
    refused = [d for d, _ in construction_refusals(scenario)]
    if refused:
        return (*problems, *refused)
    return (*problems, *_diagnose(Scenario(**fields), engine))
