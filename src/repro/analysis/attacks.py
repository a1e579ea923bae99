"""Canned attack constructions from the paper.

Two functions evaluate an impossibility result directly, without
running the swap protocol; two build a :class:`~repro.api.scenario.Scenario`
for any engine to run (``get_engine("herlihy").run(...)``):

* :func:`free_ride_partition` — Lemma 3.4's constructive impossibility:
  on a non-strongly-connected digraph, the coalition that cannot be
  reached back free-rides by triggering only its internal arcs;
* :func:`non_fvs_deadlock` — Theorem 4.12: leader sets that are not
  feedback vertex sets deadlock Phase One (the lazy pebble game stalls on
  a follower cycle);
* :func:`premature_reveal_scenario` — §1's "if Alice irrationally reveals
  s early": combined with a crashing counterparty, only the deviator is
  harmed;
* :func:`last_moment_scenario` — the §1 timelock warning, aimed at the
  *hashkey* protocol to confirm Lemma 4.8 defuses it (contrast with
  :mod:`repro.baselines.naive_timelock`, where it succeeds).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.game import SwapGame
from repro.analysis.outcomes import Outcome, classify_all, classify_coalition
from repro.api.scenario import Scenario
from repro.core.pebble import PebbleGameResult, lazy_pebble_game
from repro.digraph.digraph import Arc, Digraph, Vertex
from repro.digraph.paths import is_strongly_connected, reachable_from
from repro.errors import DigraphError
from repro.sim.faults import CrashPoint, FaultPlan


# ---------------------------------------------------------------------------
# Lemma 3.4: free-riding on non-strongly-connected digraphs
# ---------------------------------------------------------------------------


@dataclass
class FreeRideDemo:
    """The Lemma 3.4 construction, evaluated."""

    digraph: Digraph
    coalition: frozenset[Vertex]
    """``X``: the parties that can reach ``Y`` but cannot be reached back."""
    victims: frozenset[Vertex]
    """``Y``: the parties left without their counter-transfers."""
    deviating_triggered: frozenset[Arc]
    """The arcs the coalition triggers: exactly its internal ones."""
    coalition_outcome: Outcome
    coalition_gain: int
    """Coalition payoff improvement vs conforming (positive = profitable)."""
    outcomes: dict[Vertex, Outcome]


def free_ride_partition(digraph: Digraph, values: dict[Arc, int] | None = None) -> FreeRideDemo:
    """Construct Lemma 3.4's profitable deviation for a non-SC digraph.

    Finds vertices ``x, y`` with ``y`` reachable from ``x`` but not vice
    versa, sets ``Y`` = vertices reachable from ``y`` and ``X`` = the rest,
    and evaluates the deviation where ``X`` triggers all its internal arcs
    and nothing across the cut.  Raises :class:`DigraphError` when the
    digraph *is* strongly connected (no such partition exists — that is
    Lemma 3.3's point).
    """
    if is_strongly_connected(digraph):
        raise DigraphError(
            "digraph is strongly connected; Lemma 3.4's construction needs "
            "a vertex pair with one-way reachability"
        )
    partition = _one_way_pair(digraph)
    assert partition is not None
    x, y = partition
    y_side = frozenset(reachable_from(digraph, y))
    x_side = frozenset(v for v in digraph.vertices if v not in y_side)

    internal = frozenset(
        (u, v) for (u, v) in digraph.arcs if u in x_side and v in x_side
    )
    game = SwapGame(digraph, values or {})
    payoff_deviating = game.coalition_payoff(set(x_side), internal)
    payoff_deal = game.coalition_deal_payoff(set(x_side))
    return FreeRideDemo(
        digraph=digraph,
        coalition=x_side,
        victims=y_side,
        deviating_triggered=internal,
        coalition_outcome=classify_coalition(digraph, internal, set(x_side)),
        coalition_gain=payoff_deviating - payoff_deal,
        outcomes=classify_all(digraph, internal),
    )


def _one_way_pair(digraph: Digraph) -> tuple[Vertex, Vertex] | None:
    for x in digraph.vertices:
        from_x = reachable_from(digraph, x)
        for y in digraph.vertices:
            if y == x or y not in from_x:
                continue
            if x not in reachable_from(digraph, y):
                return (x, y)
    return None


# ---------------------------------------------------------------------------
# Theorem 4.12: non-FVS leader sets deadlock Phase One
# ---------------------------------------------------------------------------


@dataclass
class DeadlockDemo:
    """Phase One stalling under a non-FVS leader set."""

    digraph: Digraph
    leaders: frozenset[Vertex]
    game: PebbleGameResult
    stalled_arcs: frozenset[Arc]
    """Arcs that never receive a contract: the waits-for cycle's fallout."""


def non_fvs_deadlock(digraph: Digraph, leaders: set[Vertex]) -> DeadlockDemo:
    """Run the lazy pebble game with an invalid (non-FVS) leader set.

    Lemma 4.11 forces followers to wait for all entering contracts, so
    Phase One *is* the lazy game; with a follower cycle left uncovered,
    the game stalls and the returned demo lists the starved arcs.
    """
    from repro.digraph.feedback import is_feedback_vertex_set

    if is_feedback_vertex_set(digraph, leaders):
        raise DigraphError(
            f"{sorted(leaders)} is a feedback vertex set; the deadlock "
            "demonstration needs a leader set that is not one"
        )
    game = lazy_pebble_game(digraph, leaders, require_preconditions=False)
    stalled = frozenset(set(digraph.arcs) - game.pebbled())
    return DeadlockDemo(
        digraph=digraph,
        leaders=frozenset(leaders),
        game=game,
        stalled_arcs=stalled,
    )


# ---------------------------------------------------------------------------
# §1 scenarios, as scenarios for the real protocol
# ---------------------------------------------------------------------------


def premature_reveal_scenario(
    digraph: Digraph, revealer: Vertex, crasher: Vertex
) -> Scenario:
    """"Alice irrationally reveals s early" while another party halts.

    The revealer must be a leader for premature revelation to mean
    anything; the crasher halts at start so Phase One never completes.
    The broadcast chain is enabled so the leaked secret actually reaches
    the other parties even though contracts are missing.  The paper's
    claim (checked by callers): only the revealer can end up worse off.
    """
    return Scenario(
        topology=digraph,
        name="premature-reveal",
        use_broadcast=True,
        strategies={revealer: "premature-reveal"},
        faults=FaultPlan().crash(crasher, at_point=CrashPoint.AT_START),
    )


def last_moment_scenario(digraph: Digraph, attacker: Vertex) -> Scenario:
    """The equal-timeout attack, aimed at the hashkey protocol.

    The attacker delays every unlock to just before its hashkey deadline.
    Lemma 4.8 guarantees each predecessor still has a full Δ (its own
    deadline is one Δ later), so the attack gains nothing here; the naive
    baseline shows it succeeding.
    """
    return Scenario(
        topology=digraph,
        name="last-moment",
        strategies={attacker: "last-moment-unlock"},
    )
