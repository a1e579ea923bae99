"""Directed-multigraph swaps (§5).

"The protocol is easily extended to a model where there may be more than
one arc from one vertex to another ... reflecting the situation where
Alice wants to transfer assets on distinct blockchains to Bob."

The extension is indeed easy, and for a precise reason this module makes
explicit: *multiplicity is invisible to every quantity the protocol
depends on*.  Strong connectivity, feedback vertex sets, simple paths,
``diam(D)`` and hashkey deadlines are all functions of which ordered pairs
are connected, never of how many parallel arcs connect them.  Every
parallel arc ``(u, v, k)`` carries the same hashlock vector and the same
deadline formulas as ``(u, v)``, so its contract unlocks, triggers and
refunds under *identical* conditions.

We therefore execute a :class:`~repro.digraph.multigraph.MultiDigraph`
swap by running the standard protocol on the underlying simple digraph
with one *bundle* asset per connected pair whose value is the sum of the
parallel assets, then projecting the per-pair result back onto the keyed
arcs.  The projection is exact: a keyed arc triggered iff its pair's
contract triggered.  (A deployment would publish one contract per keyed
arc on its own chain; since all parallel contracts share every input of
their state machines, their states coincide step for step — the bundle is
an execution-level optimisation, not a semantic change.)

Timing models ride along for free: the scenario's ``timing`` reaches
the underlying :class:`SwapSimulation` (and so the shared harness), and
per-vertex profiles apply uniformly to all of a party's parallel arcs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.analysis.outcomes import Outcome
from repro.core.protocol import SwapResult, SwapSimulation, scenario_for
from repro.digraph.digraph import Arc, Digraph, Vertex
from repro.digraph.multigraph import MultiArc, MultiDigraph


@dataclass
class MultiSwapResult:
    """The simple-digraph result projected back onto keyed arcs."""

    multigraph: MultiDigraph
    base: SwapResult
    triggered_multiarcs: frozenset[MultiArc]
    refunded_multiarcs: frozenset[MultiArc]

    def all_deal(self) -> bool:
        return self.base.all_deal()

    def conforming_acceptable(self) -> bool:
        return self.base.conforming_acceptable()

    @property
    def outcomes(self) -> dict[Vertex, Outcome]:
        return self.base.outcomes

    @property
    def completion_time(self) -> int | None:
        return self.base.completion_time

    def multiplicity_transferred(self, u: Vertex, v: Vertex) -> int:
        """How many parallel ``u -> v`` assets actually moved."""
        return sum(
            1 for (a, b, _k) in self.triggered_multiarcs if (a, b) == (u, v)
        )


def bundle_values(
    multigraph: MultiDigraph, multiarc_values: dict[MultiArc, int] | None = None
) -> dict[Arc, int]:
    """Per-pair bundle values: the sum over each pair's parallel arcs."""
    values: dict[Arc, int] = {}
    for (u, v, k) in multigraph.arcs:
        value = 1 if multiarc_values is None else multiarc_values.get((u, v, k), 1)
        values[(u, v)] = values.get((u, v), 0) + value
    return values


def project_result(multigraph: MultiDigraph, base: SwapResult) -> MultiSwapResult:
    """Project a bundled simple-digraph result back onto keyed arcs."""
    triggered = frozenset(
        (u, v, k) for (u, v, k) in multigraph.arcs if (u, v) in base.triggered
    )
    refunded = frozenset(
        (u, v, k) for (u, v, k) in multigraph.arcs if (u, v) in base.refunded
    )
    return MultiSwapResult(
        multigraph=multigraph,
        base=base,
        triggered_multiarcs=triggered,
        refunded_multiarcs=refunded,
    )


def prepare_multigraph_swap(
    scenario: Any, multiarc_values: dict[MultiArc, int] | None = None
):
    """``(harness, start_time, finalize)`` for the execution-session
    layer; ``finalize`` yields the projected :class:`MultiSwapResult`.
    A simple-digraph topology runs as a multigraph of multiplicity 1."""
    multigraph = scenario.topology
    if isinstance(multigraph, Digraph):
        multigraph = MultiDigraph(multigraph.vertices, multigraph.arcs)
    simulation = SwapSimulation(
        scenario, asset_values=bundle_values(multigraph, multiarc_values)
    )
    harness, start_time, collect = simulation.prepared()

    def finalize(events_fired: int) -> MultiSwapResult:
        return project_result(multigraph, collect(events_fired))

    return harness, start_time, finalize


def run_multigraph_swap(
    multigraph: MultiDigraph,
    *,
    multiarc_values: dict[MultiArc, int] | None = None,
    **fields: Any,
) -> MultiSwapResult:
    """Execute a multigraph swap via the bundled simple-digraph protocol.

    ``multiarc_values`` prices each keyed arc; a pair's bundle value is
    the sum over its parallel arcs.  ``fields`` are
    :class:`~repro.api.scenario.Scenario` fields (``leaders``,
    ``faults``, ``seed``, ...).
    """
    harness, start_time, finalize = prepare_multigraph_swap(
        scenario_for("multiswap", multigraph, **fields), multiarc_values
    )
    return finalize(harness.run_to_quiescence(start_time))
