"""The six protocol adapters, registered at import time.

Each adapter implements :meth:`~repro.api.engine.Engine.prepare`,
assembling its simulation through the shared
:class:`~repro.sim.harness.SimulationHarness` and handing the prepared
run to the execution-session layer (:mod:`repro.api.execution`) — so
``Engine.run``, ``Engine.open``, probes, and milestone interventions
all drive the very same assembly a direct runner (``run_swap``,
``run_single_leader_swap``, ``run_multigraph_swap``) runs.

================ ==================================================== ==============================
name             protocol                                             ``Scenario.timing`` applies to
================ ==================================================== ==============================
herlihy          :class:`repro.core.protocol.SwapSimulation` (§4.5)   every party (per-vertex profile)
single-leader    :class:`repro.core.timelocks.SingleLeaderSimulation` every party (per-vertex profile)
multiswap        §5 multigraphs via :mod:`repro.core.multiswap`       every party of the bundled run
naive-timelock   baseline B1 — equal timeouts (the §1 anti-pattern)   every party (per-vertex profile)
sequential-trust baseline B2 — sequential trusted transfers           every party (per-vertex profile)
2pc              baseline B3 — trusted-coordinator two-phase commit   escrow parties (coordinator
                                                                      keeps the uniform baseline)
================ ==================================================== ==============================

Every engine honours the scenario's ``timing`` field
(:mod:`repro.sim.timing`: ``uniform`` — the back-compat default;
``jittered`` — per-party seeded conforming profiles; ``stragglers`` —
a subset violating ``reaction + action ≤ Δ``).  Timing specs are
validated when the :class:`Scenario` is constructed and applied by the
shared :class:`repro.sim.harness.SimulationHarness`, so a scenario that
constructs is a scenario every engine can execute with the same timing
semantics.

Each adapter documents the ``Scenario.params`` keys it recognises and
raises :class:`repro.errors.ScenarioError` on anything it cannot express
(unknown params, fault plans on baselines with no crash model, strategy
names on engines with incompatible party classes) — a scenario that runs
is a scenario that was fully honoured.

The registry holds these six and nothing else.  The closed-form fast
path (:mod:`repro.analysis.engine`) answers ``herlihy`` runs when a
front end passes ``fast_path=True``; it is not an engine.
"""

from __future__ import annotations

from typing import Any

from repro.api.engine import Engine, register_engine
from repro.api.execution import PreparedSimulation
from repro.api.scenario import Scenario
from repro.baselines.naive_timelock import _prepare_naive_timelock_swap
from repro.baselines.pairwise_htlc import _prepare_sequential_trust_swap
from repro.baselines.two_phase_commit import _prepare_two_phase_commit_swap
from repro.core.multiswap import prepare_multigraph_swap
from repro.core.protocol import SwapSimulation
from repro.core.timelocks import SingleLeaderSimulation
from repro.digraph.digraph import Arc, Digraph, Vertex
from repro.digraph.multigraph import MultiDigraph
from repro.errors import ScenarioError

# ---------------------------------------------------------------------------
# param plumbing
# ---------------------------------------------------------------------------


def _check_params(engine: "Engine", scenario: Scenario, allowed: frozenset[str]) -> None:
    unknown = set(scenario.params) - allowed
    if unknown:
        raise ScenarioError(
            f"engine {engine.name!r} does not recognise params "
            f"{sorted(unknown)}; allowed: {sorted(allowed) or 'none'}"
        )


def _require_no_faults(engine: "Engine", scenario: Scenario) -> None:
    if scenario.faults.crashes:
        raise ScenarioError(
            f"engine {engine.name!r} has no crash-fault model; "
            f"drop the fault plan for {sorted(scenario.faults.crashes)}"
        )


def _require_no_strategies(engine: "Engine", scenario: Scenario) -> None:
    if scenario.strategies:
        raise ScenarioError(
            f"engine {engine.name!r} does not accept named strategies "
            f"(its parties are not SwapParty subclasses); use params instead"
        )


def _arc_set(value: Any) -> set[Arc]:
    """Coerce a JSON-shaped arc collection ([["u","v"], ...]) to arcs."""
    return {tuple(arc) for arc in value}


def _single_leader(engine: "Engine", scenario: Scenario) -> Vertex | None:
    if scenario.leaders is not None and len(scenario.leaders) > 1:
        raise ScenarioError(
            f"engine {engine.name!r} supports exactly one leader; got "
            f"{list(scenario.leaders)} — use the 'herlihy' engine for "
            "multi-leader swaps"
        )
    leader = scenario.params.get("leader")
    if leader is None and scenario.leaders:
        leader = scenario.leaders[0]
    return leader


def _simple_digraph(engine: "Engine", scenario: Scenario) -> Digraph:
    """The scenario's topology as a simple digraph — refusing to silently
    drop parallel arcs a multigraph scenario actually asked for."""
    topology = scenario.topology
    if isinstance(topology, MultiDigraph):
        simple = topology.underlying_simple()
        if topology.arc_count() != simple.arc_count():
            raise ScenarioError(
                f"engine {engine.name!r} runs on simple digraphs; the "
                f"topology has {topology.arc_count()} keyed arcs over "
                f"{simple.arc_count()} vertex pairs — use the 'multiswap' "
                "engine to honour parallel arcs"
            )
        return simple
    return topology


# ---------------------------------------------------------------------------
# the adapters
# ---------------------------------------------------------------------------


class HerlihyEngine(Engine):
    """§4.5 hashkey protocol on an arbitrary strongly connected digraph.

    timing: any model — profiles are drawn per vertex and applied to
    every party's observe/act latencies.
    """

    name = "herlihy"
    description = "hashkey/timelock protocol (§4.5), any leader set"

    def prepare(self, scenario: Scenario) -> PreparedSimulation:
        _check_params(self, scenario, frozenset())
        simulation = SwapSimulation(
            _simple_digraph(self, scenario),
            leaders=scenario.leaders,
            config=scenario.config(),
            faults=scenario.faults,
            strategies=scenario.resolved_strategies(),
        )
        return PreparedSimulation(*simulation.prepared())


class SingleLeaderEngine(Engine):
    """§4.6 single-leader variant: plain timeouts, no signatures.

    params: ``leader`` (defaults to ``scenario.leaders[0]`` or an
    automatically discovered single-vertex feedback vertex set).
    timing: any model — per-vertex profiles, leader included.
    """

    name = "single-leader"
    description = "single-leader timeout protocol (§4.6)"

    def prepare(self, scenario: Scenario) -> PreparedSimulation:
        _check_params(self, scenario, frozenset({"leader"}))
        _require_no_strategies(self, scenario)
        simulation = SingleLeaderSimulation(
            _simple_digraph(self, scenario),
            leader=_single_leader(self, scenario),
            config=scenario.config(),
            faults=scenario.faults,
        )
        return PreparedSimulation(*simulation.prepared())


class MultiswapEngine(Engine):
    """§5 multigraph extension; lifts simple digraphs to multiplicity 1.

    timing: any model — applied to the bundled simple-digraph run (a
    vertex's profile covers all of its parallel arcs, which share every
    state-machine input anyway).
    """

    name = "multiswap"
    description = "directed-multigraph swaps (§5) via arc bundling"

    def prepare(self, scenario: Scenario) -> PreparedSimulation:
        _check_params(self, scenario, frozenset())
        topology = scenario.topology
        if isinstance(topology, Digraph):
            topology = MultiDigraph(topology.vertices, topology.arcs)
        return PreparedSimulation(*prepare_multigraph_swap(
            topology,
            leaders=scenario.leaders,
            config=scenario.config(),
            faults=scenario.faults,
            strategies=scenario.resolved_strategies(),
        ))


class NaiveTimelockEngine(Engine):
    """Baseline B1: equal timeouts on every arc (the §1 anti-pattern).

    params: ``leader``, ``attacker`` (plays the last-moment reveal),
    ``timeout_multiple`` (shared deadline in Δ-multiples).
    timing: any model — per-vertex profiles (the attacker's last-moment
    delay is computed on top of its drawn profile).
    """

    name = "naive-timelock"
    description = "baseline B1: hashed timelocks with equal timeouts"

    def prepare(self, scenario: Scenario) -> PreparedSimulation:
        _check_params(
            self, scenario, frozenset({"leader", "attacker", "timeout_multiple"})
        )
        _require_no_strategies(self, scenario)
        simulation = _prepare_naive_timelock_swap(
            _simple_digraph(self, scenario),
            leader=_single_leader(self, scenario),
            attacker=scenario.params.get("attacker"),
            config=scenario.config(),
            faults=scenario.faults,
            timeout_multiple=scenario.params.get("timeout_multiple"),
        )
        return PreparedSimulation(*simulation.prepared())


class SequentialTrustEngine(Engine):
    """Baseline B2: sequential trusted transfers, no atomicity.

    params: ``first_mover``, ``defectors`` (list of parties that take
    the money and run).
    timing: any model — per-vertex profiles pace each hop of the chain
    of trust.
    """

    name = "sequential-trust"
    description = "baseline B2: sequential trusted transfers"

    def prepare(self, scenario: Scenario) -> PreparedSimulation:
        _check_params(self, scenario, frozenset({"first_mover", "defectors"}))
        _require_no_strategies(self, scenario)
        _require_no_faults(self, scenario)
        defectors = scenario.params.get("defectors")
        return PreparedSimulation(*_prepare_sequential_trust_swap(
            _simple_digraph(self, scenario),
            first_mover=scenario.params.get("first_mover"),
            defectors=set(defectors) if defectors else None,
            config=scenario.config(),
        ))


class TwoPhaseCommitEngine(Engine):
    """Baseline B3: trusted-coordinator two-phase commit.

    params: ``byzantine_commit_only`` (arc subset the coordinator
    commits, aborting the rest), ``coordinator_crashes`` (bool).
    timing: any model — applied to the escrow parties; the coordinator
    (not a digraph vertex) keeps the uniform baseline profile.
    """

    name = "2pc"
    description = "baseline B3: trusted-coordinator two-phase commit"

    def prepare(self, scenario: Scenario) -> PreparedSimulation:
        _check_params(
            self, scenario, frozenset({"byzantine_commit_only", "coordinator_crashes"})
        )
        _require_no_strategies(self, scenario)
        _require_no_faults(self, scenario)
        commit_only = scenario.params.get("byzantine_commit_only")
        return PreparedSimulation(*_prepare_two_phase_commit_swap(
            _simple_digraph(self, scenario),
            config=scenario.config(),
            byzantine_commit_only=_arc_set(commit_only) if commit_only else None,
            coordinator_crashes=bool(scenario.params.get("coordinator_crashes", False)),
        ))


ENGINES: tuple[Engine, ...] = tuple(
    register_engine(engine)
    for engine in (
        HerlihyEngine(),
        SingleLeaderEngine(),
        MultiswapEngine(),
        NaiveTimelockEngine(),
        SequentialTrustEngine(),
        TwoPhaseCommitEngine(),
    )
)
