"""The six protocol adapters, registered at import time.

Each adapter declares what its protocol accepts — the ``Scenario.params``
keys it reads (:attr:`~repro.api.engine.Engine.params`) and the optional
scenario features it honours (:attr:`~repro.api.engine.Engine.honours`)
— and implements :meth:`~repro.api.engine.Engine.prepare`, which only
assembles: it passes the scenario to its simulation
(:class:`~repro.core.protocol.SwapSimulation`,
:class:`~repro.core.timelocks.SingleLeaderSimulation`,
:func:`~repro.core.multiswap.prepare_multigraph_swap` or a baseline's
``_prepare_*``), which reads every run parameter from it, assembles the
run through the shared :class:`~repro.sim.harness.SimulationHarness`,
and hands it to the execution-session layer (:mod:`repro.api.execution`).
So ``Engine.run``, ``Engine.open``, probes, and milestone interventions
all drive the very same assembly a direct runner runs: ``run_swap(d,
**fields)``, ``run_single_leader_swap(d, leader, **fields)`` and
``run_multigraph_swap(m, **fields)`` take the :class:`Scenario` fields
as keywords (``seed=5``, ``leaders=...``, ``faults=...``) and build one
``Scenario`` from them.

================ ================================================= ====================== =============================
name             protocol                                          ``params`` keys        honours
================ ================================================= ====================== =============================
herlihy          §4.5 hashkeys (:mod:`repro.core.protocol`)        —                      strategies, faults, leaders,
                                                                                          all four protocol fields
single-leader    §4.6 single leader (:mod:`repro.core.timelocks`)  leader                 faults, one leader
multiswap        §5 multigraphs (:mod:`repro.core.multiswap`)      —                      as herlihy, and parallel arcs
naive-timelock   B1: equal timeouts (the §1 anti-pattern)          leader, attacker,      faults, one leader
                                                                   timeout_multiple
sequential-trust B2: sequential trusted transfers                  first_mover, defectors —
2pc              B3: trusted-coordinator two-phase commit          byzantine_commit_only, —
                                                                   coordinator_crashes
================ ================================================= ====================== =============================

The four protocol fields are :data:`~repro.api.engine.PROTOCOL_FIELDS`
(``diam_override``, ``timeout_slack``, ``use_broadcast``,
``scheme_name``).  :meth:`~repro.api.engine.Engine.refusals` refuses any
other ``params`` key, named strategies, a fault plan, parallel arcs, a
leader set (or more than one leader) and a non-default protocol field
wherever the table does not list it; ``Engine.open`` raises the first
refusal as a :class:`repro.errors.ScenarioError`, and the analyzer, the
fast path and the serve gate report the same diagnostics — a scenario
that runs is a scenario that was fully honoured, field by field.

Every engine honours ``timing`` (:mod:`repro.sim.timing`), applied by
the shared :class:`repro.sim.harness.SimulationHarness` to every party
(``multiswap``: of the bundled run; ``2pc``: its escrow parties, the
coordinator keeping the uniform baseline).

The registry holds these six and nothing else.  The closed-form fast
path (:mod:`repro.analysis.engine`) answers ``herlihy`` runs when a
front end passes ``fast_path=True``; it is not an engine.
"""

from __future__ import annotations


from repro.api.engine import PROTOCOL_FIELDS, Engine, register_engine
from repro.api.execution import PreparedSimulation
from repro.api.scenario import Scenario
from repro.baselines.naive_timelock import _prepare_naive_timelock_swap
from repro.baselines.pairwise_htlc import _prepare_sequential_trust_swap
from repro.baselines.two_phase_commit import _prepare_two_phase_commit_swap
from repro.core.multiswap import prepare_multigraph_swap
from repro.core.protocol import SwapSimulation
from repro.core.timelocks import SingleLeaderSimulation
from repro.digraph.digraph import Vertex


def _leader(scenario: Scenario) -> Vertex | None:
    """The one leader a single-leader protocol runs with: the ``leader``
    param, else the scenario's leader (``None``: the simulation finds one)."""
    leader = scenario.params.get("leader")
    if leader is None and scenario.leaders:
        leader = scenario.leaders[0]
    return leader


# ---------------------------------------------------------------------------
# the adapters
# ---------------------------------------------------------------------------


#: What the §4.5 hashkey protocol honours: deviating parties, crashes,
#: any leader set, and every parameter of its timeouts, unlock and keys.
_HASHKEY_FEATURES = frozenset({"strategies", "faults", "leaders", *PROTOCOL_FIELDS})


class HerlihyEngine(Engine):
    """§4.5 hashkey protocol on an arbitrary strongly connected digraph."""

    name = "herlihy"
    description = "hashkey/timelock protocol (§4.5), any leader set"
    honours = _HASHKEY_FEATURES

    def prepare(self, scenario: Scenario) -> PreparedSimulation:
        return PreparedSimulation(*SwapSimulation(scenario).prepared())


class SingleLeaderEngine(Engine):
    """§4.6 single-leader variant: plain timeouts, no signatures.

    params: ``leader`` (defaults to ``scenario.leaders[0]`` or an
    automatically discovered single-vertex feedback vertex set).
    """

    name = "single-leader"
    description = "single-leader timeout protocol (§4.6)"
    params = frozenset({"leader"})
    honours = frozenset({"faults", "one-leader"})

    def prepare(self, scenario: Scenario) -> PreparedSimulation:
        simulation = SingleLeaderSimulation(scenario, leader=_leader(scenario))
        return PreparedSimulation(*simulation.prepared())


class MultiswapEngine(Engine):
    """§5 multigraph extension; lifts simple digraphs to multiplicity 1.

    A vertex's timing profile covers all of its parallel arcs, which
    share every state-machine input anyway.
    """

    name = "multiswap"
    description = "directed-multigraph swaps (§5) via arc bundling"
    honours = _HASHKEY_FEATURES | {"parallel-arcs"}

    def prepare(self, scenario: Scenario) -> PreparedSimulation:
        return PreparedSimulation(*prepare_multigraph_swap(scenario))


class NaiveTimelockEngine(Engine):
    """Baseline B1: equal timeouts on every arc (the §1 anti-pattern).

    params: ``leader``, ``attacker`` (plays the last-moment reveal),
    ``timeout_multiple`` (shared deadline in Δ-multiples); the
    attacker's last-moment delay is computed on top of its timing profile.
    """

    name = "naive-timelock"
    description = "baseline B1: hashed timelocks with equal timeouts"
    params = frozenset({"leader", "attacker", "timeout_multiple"})
    honours = frozenset({"faults", "one-leader"})

    def prepare(self, scenario: Scenario) -> PreparedSimulation:
        simulation = _prepare_naive_timelock_swap(scenario, leader=_leader(scenario))
        return PreparedSimulation(*simulation.prepared())


class SequentialTrustEngine(Engine):
    """Baseline B2: sequential trusted transfers, no atomicity.

    params: ``first_mover``, ``defectors`` (list of parties that take
    the money and run).
    """

    name = "sequential-trust"
    description = "baseline B2: sequential trusted transfers"
    params = frozenset({"first_mover", "defectors"})

    def prepare(self, scenario: Scenario) -> PreparedSimulation:
        return PreparedSimulation(*_prepare_sequential_trust_swap(scenario))


class TwoPhaseCommitEngine(Engine):
    """Baseline B3: trusted-coordinator two-phase commit.

    params: ``byzantine_commit_only`` (arc subset the coordinator
    commits, aborting the rest), ``coordinator_crashes`` (bool).
    """

    name = "2pc"
    description = "baseline B3: trusted-coordinator two-phase commit"
    params = frozenset({"byzantine_commit_only", "coordinator_crashes"})

    def prepare(self, scenario: Scenario) -> PreparedSimulation:
        return PreparedSimulation(*_prepare_two_phase_commit_swap(scenario))


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
