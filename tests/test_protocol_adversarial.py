"""Deviating-strategy runs: Theorem 4.9 against active adversaries.

Each strategy from :mod:`repro.core.strategies` is thrown at each graph
family, alone and in coalitions; conforming parties must always land in
the acceptable outcome set, and the expected attack signatures (who gets
hurt, what gets refunded) are pinned down for the scenarios the paper
narrates.
"""

import pytest

from tests.conftest import assert_no_conforming_underwater
from repro.analysis.outcomes import Outcome
from repro.core.protocol import run_swap
from repro.core.strategies import (
    GreedyClaimOnlyParty,
    LastMomentUnlockParty,
    PrematureRevealParty,
    RefuseToPublishParty,
    SelectiveUnlockParty,
    WithholdSecretParty,
    WrongContractParty,
)
from repro.digraph.generators import (
    complete_digraph,
    cycle_digraph,
    triangle,
    two_leader_triangle,
)
from repro.sim import trace as tr
from repro.sim.faults import CrashPoint, FaultPlan

STRATEGIES = [
    RefuseToPublishParty,
    WithholdSecretParty,
    PrematureRevealParty,
    SelectiveUnlockParty,
    LastMomentUnlockParty,
    WrongContractParty,
    GreedyClaimOnlyParty,
]


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.__name__)
class TestSingleDeviatorMatrix:
    @pytest.mark.parametrize("deviator", ["Alice", "Bob", "Carol"])
    def test_triangle(self, strategy, deviator):
        result = run_swap(triangle(), strategies={deviator: strategy})
        assert_no_conforming_underwater(result)

    @pytest.mark.parametrize("deviator", ["A", "B", "C"])
    def test_two_leader(self, strategy, deviator):
        result = run_swap(two_leader_triangle(), strategies={deviator: strategy})
        assert_no_conforming_underwater(result)


class TestCoalitions:
    def test_two_deviators_triangle(self):
        result = run_swap(
            triangle(),
            strategies={
                "Bob": RefuseToPublishParty,
                "Carol": GreedyClaimOnlyParty,
            },
        )
        assert_no_conforming_underwater(result)

    def test_withhold_plus_crash(self):
        result = run_swap(
            two_leader_triangle(),
            strategies={"A": WithholdSecretParty},
            faults=FaultPlan().crash("B", at_point=CrashPoint.BEFORE_PHASE_TWO),
        )
        assert_no_conforming_underwater(result)

    def test_all_but_one_deviate(self):
        result = run_swap(
            complete_digraph(4),
            strategies={
                "P00": WithholdSecretParty,
                "P01": RefuseToPublishParty,
                "P02": GreedyClaimOnlyParty,
            },
        )
        assert_no_conforming_underwater(result)


class TestSpecificSignatures:
    def test_wrong_contract_is_detected_and_abandoned(self):
        result = run_swap(triangle(), strategies={"Bob": WrongContractParty})
        abandons = result.trace.events(tr.PROTOCOL_ABANDONED)
        assert abandons, "Carol should abandon on Bob's forged contract"
        assert abandons[0].party == "Carol"
        assert result.triggered == frozenset()

    def test_refuser_blocks_deal_but_harms_nobody(self):
        result = run_swap(triangle(), strategies={"Bob": RefuseToPublishParty})
        assert all(o is Outcome.NODEAL for o in result.outcomes.values())

    def test_selective_unlocker_only_harms_itself(self):
        # C unlocks nothing it is owed: its entering arcs time out while its
        # leaving arcs may trigger — Underwater for C alone (rationality,
        # not safety, is what rules this strategy out).
        result = run_swap(
            two_leader_triangle(),
            strategies={"C": (SelectiveUnlockParty, {"unlock_only": set()})},
        )
        assert_no_conforming_underwater(result)
        assert result.outcomes["C"] in {Outcome.UNDERWATER, Outcome.NODEAL}

    def test_last_moment_gains_nothing_vs_hashkeys(self):
        # Lemma 4.8: everyone still finishes with Deal.
        for deviator in ["A", "B", "C"]:
            result = run_swap(
                two_leader_triangle(), strategies={deviator: LastMomentUnlockParty}
            )
            assert result.all_deal(), result.summary()

    def test_premature_reveal_plus_crash_harms_only_revealer(self):
        # The §1 scenario, end to end.
        result = run_swap(
            triangle(),
            use_broadcast=True,
            strategies={"Alice": PrematureRevealParty},
            faults=FaultPlan().crash("Carol", at_point=CrashPoint.AT_START),
        )
        assert result.outcomes["Alice"] is Outcome.UNDERWATER
        assert result.outcomes["Bob"] in {Outcome.FREERIDE, Outcome.DISCOUNT}
        assert_no_conforming_underwater(result)

    def test_withholding_leader_wastes_everyone_time_only(self):
        result = run_swap(cycle_digraph(4), strategies={"P00": WithholdSecretParty})
        assert all(o is Outcome.NODEAL for o in result.outcomes.values())
        # Everything published was refunded.
        assert result.refunded == frozenset(cycle_digraph(4).arcs)

    def test_greedy_claim_only_gets_nothing(self):
        # The pure free-ride attempt: Carol escrows nothing, so Alice (her
        # counterparty-to-be) never sees a contract on (Carol, Alice) and
        # never reveals her secret — Phase One stalls and nothing triggers.
        # The would-be free rider gains exactly nothing (Lemma 3.3 at work).
        result = run_swap(triangle(), strategies={"Carol": GreedyClaimOnlyParty})
        assert result.outcomes["Carol"] is Outcome.NODEAL
        assert_no_conforming_underwater(result)


class TestBroadcastUnderAdversaries:
    def test_withholding_leader_with_broadcast_enabled(self):
        # §4.5: the broadcast cannot *replace* Phase Two; a deviating leader
        # may skip broadcasting.  Everyone still ends acceptably.
        result = run_swap(
            two_leader_triangle(),
            use_broadcast=True,
            strategies={"A": WithholdSecretParty},
        )
        assert_no_conforming_underwater(result)

    def test_broadcast_conforming_all_deal(self):
        result = run_swap(two_leader_triangle(), use_broadcast=True)
        assert result.all_deal()
