"""Unit and protocol tests for the §4.6 single-leader timelock variant."""

import pytest

from tests.conftest import assert_no_conforming_underwater
from repro.analysis.outcomes import Outcome
from repro.api import Scenario
from repro.core.timelocks import (
    SimpleTimelockContract,
    SingleLeaderSimulation,
    assign_timeouts,
    equal_timeouts,
    run_single_leader_swap,
    verify_gap_property,
)
from repro.chain.assets import Asset
from repro.chain.blockchain import Blockchain
from repro.crypto.hashing import hash_secret
from repro.digraph.generators import (
    cycle_digraph,
    petal_digraph,
    triangle,
    two_cycles_sharing_vertex,
    two_leader_triangle,
)
from repro.errors import (
    AuthorizationError,
    ContractStateError,
    TimeoutAssignmentError,
)
from repro.sim.faults import CrashPoint, FaultPlan

DELTA = 1000


class TestAssignTimeouts:
    def test_paper_example_values(self):
        # With start T = Δ, the triangle gets the paper's +6Δ/+5Δ/+4Δ.
        timeouts = assign_timeouts(triangle(), "Alice", DELTA, start_time=DELTA)
        assert timeouts[("Alice", "Bob")] == 6 * DELTA
        assert timeouts[("Bob", "Carol")] == 5 * DELTA
        assert timeouts[("Carol", "Alice")] == 4 * DELTA

    def test_gap_property_holds(self):
        for digraph, leader in [
            (triangle(), "Alice"),
            (cycle_digraph(6), "P00"),
            (petal_digraph(3, 3), "HUB"),
            (two_cycles_sharing_vertex(3, 4), "HUB"),
        ]:
            timeouts = assign_timeouts(digraph, leader, DELTA)
            assert verify_gap_property(digraph, leader, timeouts, DELTA)

    def test_cyclic_followers_rejected(self):
        # Figure 6, right: no Δ-gapped assignment across a follower cycle.
        with pytest.raises(TimeoutAssignmentError, match="cycle"):
            assign_timeouts(two_leader_triangle(), "A", DELTA)

    def test_unknown_leader_rejected(self):
        with pytest.raises(TimeoutAssignmentError):
            assign_timeouts(triangle(), "Zoe", DELTA)

    def test_equal_timeouts_fail_gap_on_follower_chains(self):
        timeouts = equal_timeouts(triangle(), DELTA)
        assert not verify_gap_property(triangle(), "Alice", timeouts, DELTA)


class TestSimpleTimelockContract:
    @pytest.fixture
    def hosted(self):
        chain = Blockchain("chain:A->B")
        asset = Asset("coin")
        chain.register_asset(asset, "A", now=0)
        contract = SimpleTimelockContract(
            arc=("A", "B"),
            asset=asset,
            hashlock=hash_secret(b"s"),
            timeout=5 * DELTA,
            start_time=DELTA,
        )
        cid = chain.publish_contract(contract, "A", now=DELTA)
        return chain, contract, cid

    def test_unlock_claim(self, hosted):
        chain, contract, cid = hosted
        chain.call(cid, "unlock", "B", 2 * DELTA, {"secret": b"s"})
        chain.call(cid, "claim", "B", 2 * DELTA + 10)
        assert contract.triggered
        assert chain.assets.owner("coin") == "B"

    def test_unlock_reveals_secret(self, hosted):
        chain, contract, cid = hosted
        chain.call(cid, "unlock", "B", 2 * DELTA, {"secret": b"s"})
        assert contract.revealed_secret == b"s"

    def test_unlock_after_timeout_rejected(self, hosted):
        chain, contract, cid = hosted
        with pytest.raises(ContractStateError):
            chain.call(cid, "unlock", "B", 5 * DELTA, {"secret": b"s"})

    def test_wrong_secret_rejected(self, hosted):
        chain, contract, cid = hosted
        with pytest.raises(ContractStateError):
            chain.call(cid, "unlock", "B", 2 * DELTA, {"secret": b"x"})

    def test_unlock_wrong_caller(self, hosted):
        chain, contract, cid = hosted
        with pytest.raises(AuthorizationError):
            chain.call(cid, "unlock", "A", 2 * DELTA, {"secret": b"s"})

    def test_refund_after_timeout(self, hosted):
        chain, contract, cid = hosted
        chain.call(cid, "refund", "A", 5 * DELTA)
        assert contract.refunded
        assert chain.assets.owner("coin") == "A"

    def test_refund_early_rejected(self, hosted):
        chain, contract, cid = hosted
        with pytest.raises(ContractStateError):
            chain.call(cid, "refund", "A", 5 * DELTA - 1)

    def test_refund_after_unlock_rejected(self, hosted):
        chain, contract, cid = hosted
        chain.call(cid, "unlock", "B", 2 * DELTA, {"secret": b"s"})
        with pytest.raises(ContractStateError):
            chain.call(cid, "refund", "A", 6 * DELTA)

    def test_claim_locked_rejected(self, hosted):
        chain, contract, cid = hosted
        with pytest.raises(ContractStateError):
            chain.call(cid, "claim", "B", 2 * DELTA)

    def test_storage_is_constant_size(self, hosted):
        _, contract, _ = hosted
        # No digraph copy: storage independent of |A| (the §4.6 saving).
        assert contract.storage_size_bytes() < 200


class TestSingleLeaderProtocol:
    @pytest.mark.parametrize(
        "digraph",
        [triangle(), cycle_digraph(4), cycle_digraph(6), petal_digraph(2, 3),
         two_cycles_sharing_vertex(3, 3)],
        ids=lambda d: f"V{len(d)}A{d.arc_count()}",
    )
    def test_all_conforming_all_deal(self, digraph):
        result = run_single_leader_swap(digraph)
        assert result.all_deal(), result.summary()
        assert result.assets_conserved()

    def test_no_signature_operations(self):
        # §4.6's whole point: no digital signatures at all.
        sim = SingleLeaderSimulation(Scenario(triangle()))
        result = sim.run()
        assert result.all_deal()
        assert result.unlock_calls == 3  # plain secrets, no sig chains

    def test_leader_autodetected(self):
        result = run_single_leader_swap(cycle_digraph(5))
        assert result.all_deal()

    def test_no_single_leader_possible_rejected(self):
        with pytest.raises(TimeoutAssignmentError, match="no single vertex"):
            run_single_leader_swap(two_leader_triangle())

    @pytest.mark.parametrize("victim", ["Alice", "Bob", "Carol"])
    @pytest.mark.parametrize(
        "point",
        [CrashPoint.AT_START, CrashPoint.AFTER_PHASE_ONE_PUBLISH, CrashPoint.BEFORE_PHASE_TWO],
        ids=lambda p: p.value,
    )
    def test_crash_matrix_safe(self, victim, point):
        result = run_single_leader_swap(
            triangle(), faults=FaultPlan().crash(victim, at_point=point)
        )
        assert_no_conforming_underwater(result)

    def test_mid_phase_crash_outcome_shape(self):
        result = run_single_leader_swap(
            triangle(), faults=FaultPlan().crash("Bob", at_point=CrashPoint.BEFORE_PHASE_TWO)
        )
        assert result.outcomes["Bob"] is Outcome.UNDERWATER  # only the crasher
        assert_no_conforming_underwater(result)

    def test_completion_within_latest_timeout(self):
        result = run_single_leader_swap(cycle_digraph(5))
        assert result.completion_time is not None
        assert result.completion_time <= result.spec.phase_two_bound()

    def test_contract_bytes_smaller_than_general(self):
        from repro.core.protocol import run_swap

        single = run_single_leader_swap(triangle())
        general = run_swap(triangle())
        assert single.contract_storage_bytes < general.contract_storage_bytes
