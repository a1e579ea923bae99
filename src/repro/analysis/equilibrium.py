"""Empirical strong-Nash checking (Definition 3.2).

A swap protocol is *atomic* when it is uniform **and** a strong Nash
equilibrium: no coalition improves its payoff by jointly deviating.  The
space of deviating strategies is unbounded, so no simulation can prove the
equilibrium; what this module does is search a structured family of
deviations — the ones the paper's proofs wrestle with — and confirm that
none of them profits any coalition, while Theorem 4.9's uniformity holds
in every explored execution.

The strategy menu covers: refuse-to-publish (Lemma 4.11's primitive),
withholding secrets, pure free-riding (claim-only), crash-at-milestone
halts, and last-moment unlocking.  Coalitions up to a configurable size
try every joint assignment from the menu.

The search is one serial ``herlihy`` sweep: each joint assignment is a
:class:`~repro.api.scenario.Scenario` of registered strategy names plus
milestone crashes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from repro.analysis.game import SwapGame, proper_coalitions
from repro.analysis.outcomes import Outcome
from repro.api.report import RunReport
from repro.api.scenario import Scenario, resolve_strategy
from repro.api.sweep import Sweep, run_sweep
from repro.core.protocol import SwapSimulation
from repro.digraph.digraph import Arc, Digraph, Vertex
from repro.digraph.paths import is_strongly_connected
from repro.errors import AnalysisError, NotStronglyConnectedError
from repro.sim.faults import CrashPoint, FaultPlan


@dataclass(frozen=True)
class MenuEntry:
    """One deviating behaviour a coalition member can adopt: a
    registered ``Scenario.strategies`` name and/or a milestone crash."""

    name: str
    strategy: str | None = None
    crash_point: CrashPoint | None = None


DEFAULT_MENU: tuple[MenuEntry, ...] = (
    MenuEntry("conform"),
    MenuEntry("refuse_publish", strategy="refuse-to-publish"),
    MenuEntry("withhold_secret", strategy="withhold-secret"),
    MenuEntry("claim_only", strategy="greedy-claim-only"),
    MenuEntry("last_moment", strategy="last-moment-unlock"),
    MenuEntry("halt_before_phase_two", crash_point=CrashPoint.BEFORE_PHASE_TWO),
)


@dataclass
class DeviationOutcome:
    """One explored joint deviation and its consequences."""

    coalition: frozenset[Vertex]
    assignment: dict[Vertex, str]
    payoff: int
    deal_payoff: int
    gain: int
    conforming_underwater: set[Vertex]
    outcomes: dict[Vertex, Outcome]
    triggered: frozenset[Arc]


@dataclass
class EquilibriumReport:
    """Findings of one strong-Nash search."""

    digraph: Digraph
    explored: list[DeviationOutcome] = field(default_factory=list)

    @property
    def best_gain(self) -> int:
        """Max coalition gain over all explored deviations (<= 0 expected)."""
        return max((d.gain for d in self.explored), default=0)

    def profitable_deviations(self) -> list[DeviationOutcome]:
        return [d for d in self.explored if d.gain > 0]

    def equilibrium_supported(self) -> bool:
        """No explored deviation was profitable (Def. 3.2, empirically)."""
        return not self.profitable_deviations()

    def uniformity_held(self) -> bool:
        """No conforming party went Underwater in any exploration (Thm 4.9)."""
        return all(not d.conforming_underwater for d in self.explored)

    def deviations_explored(self) -> int:
        return len(self.explored)


def check_strong_nash(
    digraph: Digraph,
    values: dict[Arc, int] | None = None,
    max_coalition_size: int = 2,
    menu: tuple[MenuEntry, ...] = DEFAULT_MENU,
) -> EquilibriumReport:
    """Search joint deviations for profitable ones.

    Exhaustive over coalitions up to ``max_coalition_size`` and all joint
    menu assignments except the all-conform one.  Intended for the small
    digraphs the paper's examples use — cost grows as
    ``|menu|^{|coalition|}`` per coalition.  An unknown strategy name, a
    digraph that is not strongly connected and a search that explores no
    deviation (it would support nothing) are refused before any run.
    """
    for entry in menu:
        if entry.strategy is not None:
            resolve_strategy(entry.strategy)
    if not is_strongly_connected(digraph):
        raise NotStronglyConnectedError(SwapSimulation.connectivity_message)
    grid = [
        (coalition, dict(zip(sorted(coalition), combo)))
        for coalition in proper_coalitions(digraph, max_coalition_size)
        for combo in product(menu, repeat=len(coalition))
        if any(entry.name != "conform" for entry in combo)
    ]
    if not grid:
        raise AnalysisError(
            f"the search explores no deviation: max_coalition_size="
            f"{max_coalition_size}, menu {[entry.name for entry in menu]}"
        )

    sweep = Sweep("strong-nash")
    for _, plan in grid:
        faults = FaultPlan()
        for member, entry in plan.items():
            if entry.crash_point is not None:
                faults.crash(member, at_point=entry.crash_point)
        strategies = {m: e.strategy for m, e in plan.items() if e.strategy is not None}
        sweep.add("herlihy", Scenario(digraph, faults=faults, strategies=strategies))
    results = run_sweep(sweep, parallel=False)
    # SweepReport.reports leaves failed runs out, so it lines up with
    # the grid only when nothing failed.
    results.raise_failures()
    game = SwapGame(digraph, values or {})
    explored = [
        _evaluate(game, coalition, plan, run)
        for (coalition, plan), run in zip(grid, results.reports)
    ]
    return EquilibriumReport(digraph=digraph, explored=explored)


def _evaluate(
    game: SwapGame,
    coalition: set[Vertex],
    plan: dict[Vertex, MenuEntry],
    run: RunReport,
) -> DeviationOutcome:
    triggered = frozenset(run.triggered)
    payoff = game.coalition_payoff(coalition, triggered)
    deal = game.coalition_deal_payoff(coalition)
    underwater = {
        v for v in run.conforming if run.outcomes[v] is Outcome.UNDERWATER
    }
    return DeviationOutcome(
        coalition=frozenset(coalition),
        assignment={member: entry.name for member, entry in plan.items()},
        payoff=payoff,
        deal_payoff=deal,
        gain=payoff - deal,
        conforming_underwater=underwater,
        outcomes=dict(run.outcomes),
        triggered=triggered,
    )
