"""Crash-fault runs: Theorem 4.9 under the halting failure model.

The paper's §1 failure discussion, systematically: any party (or set of
parties) halting at any protocol milestone must never leave a conforming
party Underwater, and assets must always be conserved.
"""

from itertools import combinations
from random import Random

import pytest

from tests.conftest import assert_no_conforming_underwater
from repro.analysis.outcomes import Outcome
from repro.core.protocol import run_swap
from repro.digraph.generators import (
    complete_digraph,
    cycle_digraph,
    random_strongly_connected,
    triangle,
    two_leader_triangle,
)
from repro.sim import trace as tr
from repro.sim.faults import CrashPoint, FaultPlan

DELTA = 1000
ALL_POINTS = list(CrashPoint)


class TestSingleCrashTriangle:
    @pytest.mark.parametrize("victim", ["Alice", "Bob", "Carol"])
    @pytest.mark.parametrize("point", ALL_POINTS, ids=lambda p: p.value)
    def test_no_conforming_underwater(self, victim, point):
        result = run_swap(
            triangle(), faults=FaultPlan().crash(victim, at_point=point)
        )
        assert_no_conforming_underwater(result)

    def test_crash_at_start_yields_nodeal_for_all(self):
        # Leader dead before publishing anything: nothing ever escrows ...
        result = run_swap(
            triangle(), faults=FaultPlan().crash("Alice", at_point=CrashPoint.AT_START)
        )
        assert all(o is Outcome.NODEAL for o in result.outcomes.values())

    def test_mid_deploy_crash_triggers_refunds(self):
        # §1: "If any party halts while contracts are being deployed, then
        # all contracts eventually time out and trigger refunds."
        result = run_swap(
            triangle(), faults=FaultPlan().crash("Carol", at_point=CrashPoint.AT_START)
        )
        assert result.refunded == {("Alice", "Bob"), ("Bob", "Carol")}
        assert result.triggered == frozenset()

    def test_phase_two_crash_harms_only_crasher(self):
        # §1: "If any party halts while contracts are being triggered, then
        # only that party ends up worse off."
        result = run_swap(
            triangle(),
            faults=FaultPlan().crash("Bob", at_point=CrashPoint.BEFORE_PHASE_TWO),
        )
        assert result.outcomes["Bob"] is Outcome.UNDERWATER
        assert_no_conforming_underwater(result)


class TestSingleCrashTwoLeader:
    @pytest.mark.parametrize("victim", ["A", "B", "C"])
    @pytest.mark.parametrize("point", ALL_POINTS, ids=lambda p: p.value)
    def test_no_conforming_underwater(self, victim, point):
        result = run_swap(
            two_leader_triangle(), faults=FaultPlan().crash(victim, at_point=point)
        )
        assert_no_conforming_underwater(result)


class TestMultiCrash:
    @pytest.mark.parametrize(
        "victims", list(combinations(["Alice", "Bob", "Carol"], 2))
    )
    @pytest.mark.parametrize(
        "point", [CrashPoint.AT_START, CrashPoint.BEFORE_PHASE_TWO], ids=lambda p: p.value
    )
    def test_two_crashes_triangle(self, victims, point):
        plan = FaultPlan()
        for victim in victims:
            plan.crash(victim, at_point=point)
        result = run_swap(triangle(), faults=plan)
        assert_no_conforming_underwater(result)

    def test_everyone_crashes(self):
        plan = FaultPlan()
        for v in ["Alice", "Bob", "Carol"]:
            plan.crash(v, at_point=CrashPoint.AT_START)
        result = run_swap(triangle(), faults=plan)
        assert result.triggered == frozenset()
        assert result.conforming == frozenset()


class TestTimedCrashes:
    @pytest.mark.parametrize("crash_time", [0, 500, 1500, 2500, 3500, 5000, 8000])
    @pytest.mark.parametrize("victim", ["Alice", "Bob", "Carol"])
    def test_crash_at_arbitrary_times(self, crash_time, victim):
        result = run_swap(
            triangle(), faults=FaultPlan().crash(victim, at_time=crash_time)
        )
        assert_no_conforming_underwater(result)

    def test_crash_recorded_in_trace(self):
        result = run_swap(triangle(), faults=FaultPlan().crash("Bob", at_time=1500))
        crashes = result.trace.events(tr.PARTY_CRASHED)
        assert len(crashes) == 1 and crashes[0].party == "Bob"


class TestRandomGraphCrashMatrix:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_graph_random_crash(self, seed):
        rng = Random(seed)
        digraph = random_strongly_connected(4 + seed % 3, 0.3, rng)
        victim = rng.choice(list(digraph.vertices))
        point = rng.choice(ALL_POINTS)
        result = run_swap(digraph, faults=FaultPlan().crash(victim, at_point=point))
        assert_no_conforming_underwater(result)

    @pytest.mark.parametrize("n", [4, 5])
    def test_cycle_every_vertex_every_point(self, n):
        digraph = cycle_digraph(n)
        for victim in digraph.vertices:
            for point in [CrashPoint.AT_START, CrashPoint.BEFORE_PHASE_TWO]:
                result = run_swap(
                    digraph, faults=FaultPlan().crash(victim, at_point=point)
                )
                assert_no_conforming_underwater(result)

    def test_complete_digraph_leader_crash(self):
        digraph = complete_digraph(4)
        result = run_swap(
            digraph,
            faults=FaultPlan().crash("P00", at_point=CrashPoint.BEFORE_PHASE_TWO),
        )
        assert_no_conforming_underwater(result)


class TestSlowButConformingParties:
    def test_sluggish_profile_still_safe(self):
        # A party at the very edge of the Δ assumption must not be harmed
        # (Lemma 4.8 needs only step <= Δ for *safety*).
        from repro.sim.process import ReactionProfile

        result = run_swap(
            triangle(),
            profiles={"Bob": ReactionProfile.sluggish(DELTA)},
            timeout_slack=1,
        )
        assert result.outcomes["Bob"] is not Outcome.UNDERWATER
        assert_no_conforming_underwater(result)
