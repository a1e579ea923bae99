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

import importlib

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

# NB: the predict() *function* is deliberately not re-exported — its
# name collides with the submodule's, and the import system pins the
# submodule onto the package after first import; reach it as
# ``repro.analysis.predict.predict``.
_LAZY: dict[str, tuple[str, ...]] = {
    "attacks": (
        "DeadlockDemo",
        "FreeRideDemo",
        "free_ride_partition",
        "last_moment_scenario",
        "non_fvs_deadlock",
        "premature_reveal_scenario",
    ),
    "equilibrium": (
        "DEFAULT_MENU",
        "DeviationOutcome",
        "EquilibriumReport",
        "MenuEntry",
        "check_strong_nash",
    ),
    "diagnostics": ("Diagnostic", "SEVERITIES", "has_errors"),
    "structure": ("check_scenario", "decode_scenario"),
    "predict": ("Prediction",),
    "protocol": (
        "COVERAGE_FULL",
        "COVERAGE_NONE",
        "COVERAGE_VERDICT",
        "PREDICTABLE_ENGINES",
        "ScenarioAnalysis",
        "VERDICTS",
        "analyze_scenario",
        "check_submission",
    ),
    "lint": ("LintModule", "LintRule", "LintViolation", "lint_file", "run_lint"),
}
#: The module each lazily loaded name lives in.
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}

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
    *_LAZY_MODULE,
]


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
