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

Verdict ``invalid`` means an ``error`` diagnostic: a structural one,
or one of :meth:`Engine.refusals <repro.api.engine.Engine.refusals>`,
the very diagnostics ``Engine.open`` raises on (what the engine does
not honour).  So the analyzer, the fast path and the serve gate refuse
exactly what the engine refuses, with the engine's message.

The closed-form fast path (:mod:`repro.analysis.engine`) answers only
``coverage="full"`` scenarios, and must match the simulator byte for
byte on every one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.analysis.diagnostics import Diagnostic, error, has_errors
from repro.analysis.predict import Prediction, predict
from repro.analysis.structure import check_payload, check_scenario
from repro.api.engine import get_engine
from repro.api.scenario import Scenario
from repro.core.spec import resolve_leaders
from repro.crypto.signatures import scheme_names
from repro.errors import ReproError, UnknownEngineError
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


def _engine_diagnostics(scenario: Scenario, engine: str) -> tuple[Diagnostic, ...]:
    """What ``engine`` refuses to run (its
    :meth:`~repro.api.engine.Engine.refusals`), then the signature-scheme
    facts for an engine that honours ``scheme_name``.  An unregistered
    engine adds nothing: its lookup fails when the run is submitted."""
    try:
        adapter = get_engine(engine)
    except UnknownEngineError:
        return ()
    out = list(adapter.refusals(scenario))
    if "scheme_name" not in adapter.honours:
        return tuple(out)
    if scenario.scheme_name not in scheme_names():
        out.append(error(
            "engine/unknown-scheme", "/scheme_name",
            f"unknown signature scheme {scenario.scheme_name!r}; "
            f"known schemes: {', '.join(scheme_names())}",
        ))
    elif (
        scenario.scheme_name == "lamport"
        and len(resolve_leaders(scenario, scenario.digraph())) > 1
    ):
        out.append(error(
            "engine/one-time-scheme", "/scheme_name",
            "Lamport keys are one-time, but a multi-leader swap "
            "makes each party sign one hashkey extension per lock; "
            "use a multi-use scheme or a single-leader digraph",
        ))
    return tuple(out)


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
    """The structural checks, then what ``engine`` refuses."""
    return [*check_scenario(scenario), *_engine_diagnostics(scenario, engine)]


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

    Runs the payload-shape checks first; when they pass, constructs the
    scenario and adds the graph-level checks.  Returns every diagnostic
    found — the caller rejects on any ``error`` severity.
    """
    diagnostics = check_payload(data)
    if has_errors(diagnostics):
        return diagnostics
    try:
        scenario = Scenario.from_dict(dict(data))
    except ReproError as exc:
        # The payload layer aims to catch everything from_dict would
        # reject, but stays conservative: surface any residue as a
        # whole-payload diagnostic rather than an unstructured failure.
        return diagnostics + (
            error("payload/invalid", "", str(exc)),
        )
    return diagnostics + tuple(_diagnose(scenario, engine))
