"""Tests for the §4.5/§5 extensions: broadcast, multigraph, recurrent swaps."""

import pytest

from tests.conftest import assert_no_conforming_underwater
from repro.core.broadcast import compare_broadcast, phase_two_timing
from repro.core.multiswap import run_multigraph_swap
from repro.api import Scenario
from repro.core.protocol import run_swap
from repro.core.recurrent import RecurrentSwapCoordinator
from repro.digraph.generators import cycle_digraph, triangle, two_leader_triangle
from repro.digraph.multigraph import MultiDigraph
from repro.errors import SimulationError
from repro.sim.faults import CrashPoint, FaultPlan


class TestBroadcastOptimisation:
    def test_phase_two_constant_with_broadcast(self):
        # §4.5: with the shared chain, Phase Two no longer scales with diam.
        without, with_bc = compare_broadcast(cycle_digraph(8))
        assert with_bc.duration < without.duration

    def test_broadcast_duration_diam_independent(self):
        durations = []
        for n in [4, 6, 8]:
            _, with_bc = compare_broadcast(cycle_digraph(n))
            durations.append(with_bc.duration)
        # Constant time: all sizes take the same Phase-Two wall clock.
        assert len(set(durations)) == 1

    def test_without_broadcast_grows_with_diam(self):
        durations = []
        for n in [4, 6, 8]:
            without, _ = compare_broadcast(cycle_digraph(n))
            durations.append(without.duration)
        assert durations[0] < durations[1] < durations[2]

    @pytest.mark.parametrize(
        "fields",
        [{"chain_delays": {"broadcast": 700}}, {"timing": "jittered"}],
        ids=["chain-delays", "timing"],
    )
    def test_compare_keeps_every_config_field(self, fields):
        # Only use_broadcast differs between the two runs: the timing
        # model and per-chain delays of the caller's fields stay in both.
        d = cycle_digraph(6)
        without, with_bc = compare_broadcast(d, **fields)
        assert without == phase_two_timing(run_swap(d, **fields))
        reference = run_swap(d, use_broadcast=True, **fields)
        assert with_bc == phase_two_timing(reference)
        assert with_bc != compare_broadcast(d)[1]

    def test_broadcast_still_all_deal(self):
        result = run_swap(cycle_digraph(6), use_broadcast=True)
        assert result.all_deal()

    def test_broadcast_safe_under_crash(self):
        result = run_swap(
            cycle_digraph(5),
            use_broadcast=True,
            faults=FaultPlan().crash("P02", at_point=CrashPoint.BEFORE_PHASE_TWO),
        )
        assert_no_conforming_underwater(result)

    def test_timing_requires_completion(self):
        result = run_swap(
            triangle(), faults=FaultPlan().crash("Alice", at_point=CrashPoint.AT_START)
        )
        with pytest.raises(ValueError):
            phase_two_timing(result)


class TestMultigraphSwaps:
    def test_parallel_arcs_all_transfer(self):
        mg = MultiDigraph(
            ["A", "B", "C"],
            [("A", "B"), ("A", "B"), ("B", "C"), ("C", "A")],
        )
        result = run_multigraph_swap(mg)
        assert result.all_deal()
        assert result.multiplicity_transferred("A", "B") == 2
        assert len(result.triggered_multiarcs) == 4

    def test_values_sum_into_bundles(self):
        mg = MultiDigraph(["A", "B"], [("A", "B", 0), ("A", "B", 1), ("B", "A", 0)])
        result = run_multigraph_swap(
            mg, multiarc_values={("A", "B", 0): 3, ("A", "B", 1): 4}
        )
        assert result.all_deal()

    def test_crash_refunds_all_parallel_arcs(self):
        mg = MultiDigraph(
            ["A", "B", "C"],
            [("A", "B"), ("A", "B"), ("B", "C"), ("C", "A")],
        )
        result = run_multigraph_swap(
            mg, faults=FaultPlan().crash("C", at_point=CrashPoint.AT_START)
        )
        assert result.conforming_acceptable()
        assert result.multiplicity_transferred("A", "B") == 0

    def test_outcomes_projected(self):
        mg = MultiDigraph(["A", "B"], [("A", "B"), ("B", "A")])
        result = run_multigraph_swap(mg)
        assert set(result.outcomes) == {"A", "B"}


class TestRecurrentSwaps:
    def test_rounds_complete(self):
        outcome = RecurrentSwapCoordinator(triangle(), rounds=3).run()
        assert outcome.round_count == 3
        assert outcome.all_deal()

    def test_next_hashlocks_distributed_in_all_but_last_round(self):
        outcome = RecurrentSwapCoordinator(cycle_digraph(3), rounds=3).run()
        published = [r.next_hashlocks_published for r in outcome.rounds]
        assert published[0] > 0 and published[1] > 0
        assert published[-1] == 0

    def test_clearing_interactions_saved(self):
        outcome = RecurrentSwapCoordinator(triangle(), rounds=4).run()
        assert outcome.clearing_interactions_saved() == 3

    def test_rounds_use_distinct_secrets(self):
        outcome = RecurrentSwapCoordinator(triangle(), rounds=2).run()
        locks = [r.result.spec.hashlocks for r in outcome.rounds]
        assert locks[0] != locks[1]

    def test_multi_leader_recurrent(self):
        outcome = RecurrentSwapCoordinator(two_leader_triangle(), rounds=2).run()
        assert outcome.all_deal()

    def test_zero_rounds_rejected(self):
        with pytest.raises(SimulationError):
            RecurrentSwapCoordinator(triangle(), rounds=0)

    @pytest.mark.parametrize(
        "fields",
        [{}, {"chain_delays": {"P00->P01": 700}}, {"timing": "jittered"}],
        ids=["default", "chain-delays", "timing"],
    )
    def test_rounds_keep_every_config_field(self, fields):
        # Only the seed differs from round to round: the timing model and
        # per-chain delays of the caller's fields reach every round.
        d = cycle_digraph(6)
        outcome = RecurrentSwapCoordinator(d, rounds=2, **fields).run()
        base_seed = Scenario(d, **fields).seed
        for index, round_ in enumerate(outcome.rounds):
            seeded = run_swap(d, **fields, seed=base_seed * 1000 + index)
            assert round_.result.completion_time == seeded.completion_time

    def test_round_completion_follows_the_config(self):
        times = {
            RecurrentSwapCoordinator(cycle_digraph(6), rounds=1, **fields)
            .run().rounds[0].result.completion_time
            for fields in (
                {}, {"chain_delays": {"P00->P01": 700}}, {"timing": "jittered"},
            )
        }
        assert len(times) == 3

    def test_broadcast_records_next_round_hashlocks(self):
        outcome = RecurrentSwapCoordinator(triangle(), rounds=2).run()
        first_round = outcome.rounds[0].result
        kinds = [
            r.kind for r in first_round.network.broadcast_chain.records()
        ]
        assert "next_round_hashlock" in kinds
