"""Static analysis: game theory, scenario verification, and code lint.

Three layers share this package:

* **Game-theoretic analysis** (§3 of the paper): outcome
  classification, payoffs, the strong-Nash equilibrium checker, and the
  attack constructions; whatever of it simulates goes through
  ``Scenario → Engine → RunReport``.
* **The static scenario verifier** (:mod:`repro.analysis.protocol`):
  structural diagnostics plus closed-form Fig. 3 predictions for a
  :class:`~repro.api.scenario.Scenario` without executing it — surfaced
  as ``Scenario.analyze()``, ``python -m repro lab check``, and the
  ``repro.serve`` pre-admission gate.
* **The codebase lint pass** (:mod:`repro.analysis.lint`): AST rules
  enforcing the repo's own invariants, run as ``python -m repro lint``
  and as a CI gate.

Outcome classification and payoffs are imported eagerly; everything
else is loaded lazily (PEP 562) — the game-theory modules because they
depend on :mod:`repro.core` (which itself uses the outcome classifier),
the verifier and lint because most callers never need them.
"""

from repro.analysis.game import RECEIVER_VALUE_PERCENT, SwapGame, proper_coalitions
from repro.analysis.outcomes import (
    ACCEPTABLE_OUTCOMES,
    Outcome,
    all_deal,
    classify_all,
    classify_coalition,
    classify_party,
    comparable,
    strictly_prefers,
    uniform_for,
)

_LAZY_ATTACKS = {
    "DeadlockDemo",
    "FreeRideDemo",
    "free_ride_partition",
    "last_moment_scenario",
    "non_fvs_deadlock",
    "premature_reveal_scenario",
}
_LAZY_EQUILIBRIUM = {
    "DEFAULT_MENU",
    "DeviationOutcome",
    "EquilibriumReport",
    "MenuEntry",
    "check_strong_nash",
}
_LAZY_DIAGNOSTICS = {
    "Diagnostic",
    "SEVERITIES",
    "has_errors",
}
_LAZY_STRUCTURE = {
    "check_scenario",
    "decode_scenario",
}
# NB: the predict() *function* is deliberately not re-exported — its
# name collides with the submodule's, and the import system pins the
# submodule onto the package after first import; reach it as
# ``repro.analysis.predict.predict``.
_LAZY_PREDICT = {
    "Prediction",
}
_LAZY_PROTOCOL = {
    "COVERAGE_FULL",
    "COVERAGE_NONE",
    "COVERAGE_VERDICT",
    "PREDICTABLE_ENGINES",
    "ScenarioAnalysis",
    "VERDICTS",
    "analyze_scenario",
    "check_submission",
}
_LAZY_LINT = {
    "LintModule",
    "LintRule",
    "LintViolation",
    "lint_file",
    "run_lint",
}

__all__ = [
    "RECEIVER_VALUE_PERCENT",
    "SwapGame",
    "proper_coalitions",
    "ACCEPTABLE_OUTCOMES",
    "Outcome",
    "all_deal",
    "classify_all",
    "classify_coalition",
    "classify_party",
    "comparable",
    "strictly_prefers",
    "uniform_for",
    *sorted(_LAZY_ATTACKS),
    *sorted(_LAZY_EQUILIBRIUM),
    *sorted(_LAZY_DIAGNOSTICS),
    *sorted(_LAZY_STRUCTURE),
    *sorted(_LAZY_PREDICT),
    *sorted(_LAZY_PROTOCOL),
    *sorted(_LAZY_LINT),
]


def __getattr__(name: str):
    if name in _LAZY_ATTACKS:
        from repro.analysis import attacks

        return getattr(attacks, name)
    if name in _LAZY_EQUILIBRIUM:
        from repro.analysis import equilibrium

        return getattr(equilibrium, name)
    if name in _LAZY_DIAGNOSTICS:
        from repro.analysis import diagnostics

        return getattr(diagnostics, name)
    if name in _LAZY_STRUCTURE:
        from repro.analysis import structure

        return getattr(structure, name)
    if name in _LAZY_PREDICT:
        from repro.analysis import predict

        return getattr(predict, name)
    if name in _LAZY_PROTOCOL:
        from repro.analysis import protocol

        return getattr(protocol, name)
    if name in _LAZY_LINT:
        from repro.analysis import lint

        return getattr(lint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
