"""Edge-case tests for result collection, summaries and network guards."""

import pytest

from repro.api import Scenario, get_engine
from repro.chain.network import ChainNetwork
from repro.core.protocol import SwapConfig, run_swap
from repro.core.timelocks import SingleLeaderSimulation
from repro.digraph.generators import triangle, two_leader_triangle
from repro.errors import SimulationError
from repro.sim.faults import CrashPoint, FaultPlan


class TestStuckEscrow:
    def test_crashed_claimer_leaves_asset_in_escrow(self):
        # A party that unlocks everything but dies before claiming leaves
        # the asset owned by the contract: stuck, conserved, attributable.
        result = run_swap(
            triangle(),
            faults=FaultPlan().crash("Alice", at_point=CrashPoint.AFTER_FIRST_UNLOCK),
        )
        assert result.stuck_in_escrow
        assert result.assets_conserved()
        for arc in result.stuck_in_escrow:
            chain = result.network.chain_for_arc(arc)
            head, tail = arc
            owner = chain.assets.owner(f"asset@{head}->{tail}")
            assert owner.startswith(chain.chain_id)

    def test_stuck_arcs_never_counted_triggered_or_refunded(self):
        result = run_swap(
            triangle(),
            faults=FaultPlan().crash("Alice", at_point=CrashPoint.AFTER_FIRST_UNLOCK),
        )
        assert not (result.stuck_in_escrow & result.triggered)
        assert not (result.stuck_in_escrow & result.refunded)


class TestSummaries:
    def test_summary_mentions_refunds(self):
        result = run_swap(
            triangle(), faults=FaultPlan().crash("Carol", at_point=CrashPoint.AT_START)
        )
        text = result.summary()
        assert "refunded: 2" in text
        assert "NoDeal" in text

    def test_completion_none_when_nothing_triggers(self):
        result = run_swap(
            triangle(), faults=FaultPlan().crash("Alice", at_point=CrashPoint.AT_START)
        )
        assert result.completion_time is None
        assert not result.within_time_bound()


class TestNetworkGuards:
    def test_chain_id_collision_guard(self):
        network = ChainNetwork(include_broadcast=False)
        network.add_arc_chain(("A", "B"))
        # A different arc that would produce the same chain id cannot occur
        # with the canonical naming, but direct id lookup of a missing
        # chain must raise cleanly.
        with pytest.raises(SimulationError):
            network.chain("chain:B->A")

    def test_unknown_chain_lookup(self):
        network = ChainNetwork.for_digraph(triangle())
        with pytest.raises(SimulationError):
            network.chain("nonsense")


class TestRunnerGuards:
    def test_single_leader_simulation_runs_once(self):
        sim = SingleLeaderSimulation(triangle())
        sim.run()
        with pytest.raises(SimulationError):
            sim.run()

    def test_sequential_baseline_default_first_mover(self):
        result = get_engine("sequential-trust").run(Scenario(topology=triangle())).raw
        # Default first mover is the first vertex; the run completes.
        assert result.all_deal()
        assert result.spec.leaders == ("Alice",)

    def test_leaders_order_preserved_as_given(self):
        result = run_swap(two_leader_triangle(), leaders=("B", "A"))
        assert result.spec.leaders == ("B", "A")
        assert result.all_deal()


class TestConfigVariants:
    def test_custom_delta(self):
        result = run_swap(triangle(), config=SwapConfig(delta=500))
        assert result.all_deal()
        assert result.spec.delta == 500

    def test_custom_start_time(self):
        result = run_swap(triangle(), config=SwapConfig(start_time=5000))
        assert result.all_deal()
        assert result.spec.start_time == 5000
        first_publish = result.trace.times_by_arc("contract_published")
        assert min(first_publish.values()) == 5000

    def test_asset_values_reach_registry(self):
        arcs = list(triangle().arcs)
        values = {arcs[0]: 42}
        result = run_swap(triangle(), asset_values=values)
        chain = result.network.chain_for_arc(arcs[0])
        head, tail = arcs[0]
        assert chain.assets.asset(f"asset@{head}->{tail}").value == 42
