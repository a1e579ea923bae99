"""All-conforming protocol runs: Definition 3.1's first clause plus timing.

Covers Lemma 4.5 (Phase One within diam·Δ), Theorem 4.7 (everything
triggered within 2·diam·Δ), the Figure 1/2 timeline shape, and the
byte-level metrics the complexity theorems are stated over.
"""

from random import Random

import pytest

from repro.analysis.outcomes import Outcome
from repro.api import Scenario
from repro.api.sweep import execute_payload
from repro.baselines.naive_timelock import LastMomentSingleLeaderParty
from repro.core.protocol import SwapConfig, SwapSimulation, run_swap
from repro.core.strategies import RefuseToPublishParty
from repro.core.timelocks import run_single_leader_swap
from repro.digraph.generators import (
    complete_digraph,
    cycle_digraph,
    layered_crown,
    petal_digraph,
    random_strongly_connected,
    triangle,
    two_cycles_sharing_vertex,
    two_leader_triangle,
)
from repro.errors import NotStronglyConnectedError, SimulationError
from repro.sim import trace as tr
from repro.sim.faults import CrashPoint, FaultPlan

DELTA = 1000

# Both hashed-timelock runners share one assembly, so one guard each.
RUNNERS = [
    (run_swap, RefuseToPublishParty),
    (run_single_leader_swap, LastMomentSingleLeaderParty),
]
RUNNER_IDS = ["herlihy", "single-leader"]

FAMILIES = [
    triangle(),
    two_leader_triangle(),
    cycle_digraph(4),
    cycle_digraph(7),
    complete_digraph(4),
    petal_digraph(3, 3),
    two_cycles_sharing_vertex(3, 4),
    layered_crown(3, 2),
]


@pytest.mark.parametrize("digraph", FAMILIES, ids=lambda d: f"V{len(d)}A{d.arc_count()}")
class TestAllConformingFamilies:
    def test_all_deal(self, digraph):
        result = run_swap(digraph)
        assert result.all_deal(), result.summary()
        assert result.triggered == frozenset(digraph.arcs)
        assert not result.refunded and not result.stuck_in_escrow

    def test_time_bound(self, digraph):
        # Theorem 4.7: within 2·diam(D)·Δ of the start.
        result = run_swap(digraph)
        assert result.within_time_bound(), result.summary()

    def test_phase_one_bound(self, digraph):
        # Lemma 4.5: every arc has a contract within diam·Δ of the start.
        result = run_swap(digraph)
        phase_one = result.phase_one_complete_time
        assert phase_one is not None
        assert phase_one <= result.spec.start_time + result.spec.diam * DELTA

    def test_assets_conserved(self, digraph):
        assert run_swap(digraph).assets_conserved()

    def test_ledgers_intact(self, digraph):
        result = run_swap(digraph)
        result.network.verify_all()


class TestFigure1And2Timeline:
    """The §1 walkthrough: deployment order and trigger order."""

    def test_deployment_order(self):
        result = run_swap(triangle())
        published = result.trace.times_by_arc(tr.CONTRACT_PUBLISHED)
        # Alice deploys first, then Bob, then Carol (Fig. 1).
        assert (
            published[("Alice", "Bob")]
            < published[("Bob", "Carol")]
            < published[("Carol", "Alice")]
        )

    def test_each_deployment_step_within_delta(self):
        result = run_swap(triangle())
        published = result.trace.times_by_arc(tr.CONTRACT_PUBLISHED)
        assert published[("Bob", "Carol")] - published[("Alice", "Bob")] <= DELTA
        assert published[("Carol", "Alice")] - published[("Bob", "Carol")] <= DELTA

    def test_trigger_order_reverses(self):
        # Fig. 2: the Cadillac title moves first, then bitcoins, then alt-coins.
        result = run_swap(triangle())
        triggered = result.trace.times_by_arc(tr.ARC_TRIGGERED)
        assert (
            triggered[("Carol", "Alice")]
            <= triggered[("Bob", "Carol")]
            <= triggered[("Alice", "Bob")]
        )

    def test_secret_revealed_via_unlocks(self):
        result = run_swap(triangle())
        unlocks = result.trace.times_by_arc(tr.HASHLOCK_UNLOCKED)
        # Alice unlocks her entering arc first; the secret then flows back.
        assert (
            unlocks[("Carol", "Alice")]
            < unlocks[("Bob", "Carol")]
            < unlocks[("Alice", "Bob")]
        )


class TestHashkeyPathsGrow:
    def test_path_lengths_match_distance(self):
        # In the triangle, Alice's own unlock uses |p|=0, Carol's |p|=1,
        # Bob's |p|=2 (the relay chain of Fig. 2).
        result = run_swap(triangle())
        events = result.trace.events(tr.HASHLOCK_UNLOCKED)
        lengths = {tuple(e.details["arc"]): e.details["path_length"] for e in events}
        assert lengths[("Carol", "Alice")] == 0
        assert lengths[("Bob", "Carol")] == 1
        assert lengths[("Alice", "Bob")] == 2


class TestRandomGraphs:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_all_deal_within_bound(self, seed):
        digraph = random_strongly_connected(3 + seed, 0.3, Random(seed))
        result = run_swap(digraph)
        assert result.all_deal(), result.summary()
        assert result.within_time_bound()

    def test_explicit_leaders_respected(self):
        digraph = two_leader_triangle()
        result = run_swap(digraph, leaders=("B", "C"))
        assert result.spec.leaders == ("B", "C")
        assert result.all_deal()

    def test_determinism(self):
        a = run_swap(cycle_digraph(5), config=SwapConfig(seed=3))
        b = run_swap(cycle_digraph(5), config=SwapConfig(seed=3))
        assert a.completion_time == b.completion_time
        assert a.published_bytes == b.published_bytes

    def test_seed_changes_secrets_not_outcome(self):
        a = run_swap(triangle(), config=SwapConfig(seed=1))
        b = run_swap(triangle(), config=SwapConfig(seed=2))
        assert a.spec.hashlocks != b.spec.hashlocks
        assert a.all_deal() and b.all_deal()


class TestMetrics:
    def test_contract_storage_scales_with_arcs_and_graph(self):
        small = run_swap(triangle())
        big = run_swap(complete_digraph(4))
        assert big.contract_storage_bytes > small.contract_storage_bytes

    def test_unlock_calls_equal_arcs_times_locks(self):
        # Every arc's contract gets every lock unlocked exactly once.
        result = run_swap(two_leader_triangle())
        digraph = two_leader_triangle()
        assert result.unlock_calls == digraph.arc_count() * 2

    def test_summary_is_printable(self):
        text = run_swap(triangle()).summary()
        assert "Deal" in text and "diam" in text


class TestGuards:
    def test_not_strongly_connected_rejected(self):
        from repro.digraph.generators import chain_digraph

        with pytest.raises(NotStronglyConnectedError):
            run_swap(chain_digraph(3))

    @pytest.mark.parametrize("runner", RUNNERS, ids=RUNNER_IDS)
    def test_unknown_strategy_party_rejected(self, runner):
        run, party_class = runner
        with pytest.raises(SimulationError, match="strategy for unknown party 'Zoe'"):
            run(triangle(), strategies={"Zoe": party_class})

    @pytest.mark.parametrize("runner", RUNNERS, ids=RUNNER_IDS)
    def test_unknown_fault_party_rejected(self, runner):
        run, _ = runner
        with pytest.raises(SimulationError, match="fault for unknown party 'Zoe'"):
            run(triangle(), faults=FaultPlan().crash("Zoe", at_time=5))

    @pytest.mark.parametrize(
        "engine", ["herlihy", "multiswap", "single-leader", "naive-timelock"]
    )
    def test_unknown_fault_party_is_a_sweep_failure_entry(self, engine):
        scenario = Scenario(
            topology=triangle(), faults=FaultPlan().crash("Zoe", at_point=CrashPoint.AT_START)
        )
        entry = execute_payload((engine, scenario.to_dict()))
        assert not entry["ok"]
        assert entry["error_type"] == "SimulationError"

    def test_simulation_runs_once(self):
        sim = SwapSimulation(triangle())
        sim.run()
        with pytest.raises(SimulationError):
            sim.run()

    def test_diam_override_safe_upper_bound(self):
        result = run_swap(triangle(), config=SwapConfig(diam_override=5))
        assert result.all_deal()
        assert result.spec.diam == 5


class TestSchemes:
    @pytest.mark.parametrize("scheme", ["hmac-registry", "ecdsa-secp256k1"])
    def test_swap_with_real_schemes(self, scheme):
        result = run_swap(triangle(), config=SwapConfig(scheme_name=scheme))
        assert result.all_deal()

    def test_lamport_single_leader_works(self):
        # With one lock, every party signs exactly one message, so one-time
        # Lamport keys suffice — the paper's "fewer signatures?" question
        # has a hash-only answer for single-leader swaps.
        result = run_swap(triangle(), config=SwapConfig(scheme_name="lamport"))
        assert result.all_deal()

    def test_lamport_multi_leader_rejected(self):
        # With multiple locks a party would sign once per lock; fail fast.
        from repro.errors import SignatureError

        with pytest.raises(SignatureError, match="one-time"):
            run_swap(two_leader_triangle(), config=SwapConfig(scheme_name="lamport"))
