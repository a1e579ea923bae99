"""E20 — liveness boundary: how slow can conforming parties be?

DESIGN.md §2: with the paper-strict deadlines (slack 0), all-conforming
completion requires the conforming observe+act round trip ρ·Δ to satisfy
ρ < diam/(diam+1).  The bench sweeps ρ on a diameter-1 digraph (the
tightest case, boundary at ρ = 1/2) and on the triangle (diam 2, boundary
at 2/3), with and without one Δ of timeout slack — locating the completion
cliff the paper's constants imply but never plot.

Safety is asserted everywhere: runs beyond the boundary degrade to
refunds/NoDeal, never to a conforming Underwater.
"""

from _tables import emit_table

from repro.core.protocol import run_swap
from repro.digraph.digraph import Digraph
from repro.digraph.generators import triangle

DELTA = 1000
TWO_CYCLE = Digraph(["A", "B"], [("A", "B"), ("B", "A")])

# Round-trip fractions to sweep; reaction:action split 5:4 as the default.
FRACTIONS = [0.30, 0.45, 0.49, 0.52, 0.60, 0.70, 0.80, 0.95]


def sweep():
    rows = []
    for label, digraph, boundary in [
        ("2-cycle (diam 1)", TWO_CYCLE, 1 / 2),
        ("triangle (diam 2)", triangle(), 2 / 3),
    ]:
        for rho in FRACTIONS:
            for slack in [0, 1]:
                result = run_swap(
                    digraph,
                    reaction_fraction=rho * 5 / 9,
                    action_fraction=rho * 4 / 9,
                    timeout_slack=slack,
                )
                assert result.conforming_acceptable(), (label, rho, slack)
                rows.append(
                    [
                        label,
                        f"{rho:.2f}",
                        f"< {boundary:.2f}" if rho < boundary else f">= {boundary:.2f}",
                        slack,
                        "all-Deal" if result.all_deal() else
                        f"refunded {len(result.refunded)}",
                    ]
                )
    return rows


def test_liveness_cliff(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "E20",
        "Liveness boundary: conforming round trip ρ·Δ vs paper-strict "
        "deadlines (slack 0) and +1Δ slack",
        ["digraph", "ρ", "vs diam/(diam+1)", "slack", "outcome"],
        rows,
        notes=(
            "With slack 0 the swap completes exactly when ρ is below the "
            "diam/(diam+1) boundary; one Δ of slack buys the full ρ <= 1 "
            "range.  No run ever harms a conforming party — missing the "
            "boundary costs liveness (refunds), never safety."
        ),
    )
    for label, rho_text, boundary_text, slack, outcome in rows:
        rho = float(rho_text)
        below = boundary_text.startswith("<")
        if slack == 1:
            assert outcome == "all-Deal", (label, rho)
        elif below:
            assert outcome == "all-Deal", (label, rho)
        else:
            assert outcome != "all-Deal", (label, rho)
