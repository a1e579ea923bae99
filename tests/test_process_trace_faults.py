"""Unit tests for processes, traces and fault plans."""

import pytest

from repro.errors import SimulationError
from repro.sim.faults import Crash, CrashPoint, FaultPlan
from repro.sim.process import Process, ReactionProfile
from repro.sim.scheduler import Scheduler
from repro.sim.trace import ARC_TRIGGERED, CONTRACT_PUBLISHED, Trace

DELTA = 1000


class TestReactionProfile:
    def test_conforming_default(self):
        profile = ReactionProfile.conforming(DELTA)
        assert profile.round_trip <= DELTA
        assert profile.is_conforming(DELTA)

    def test_conforming_is_strictly_sub_half_delta(self):
        # The liveness analysis (DESIGN.md §2) needs round trips < Δ/2.
        profile = ReactionProfile.conforming(DELTA)
        assert profile.round_trip < DELTA // 2

    def test_sluggish_exactly_delta(self):
        profile = ReactionProfile.sluggish(DELTA)
        assert profile.round_trip == DELTA
        assert profile.is_conforming(DELTA)

    def test_fractions(self):
        profile = ReactionProfile.fractions(DELTA, 0.3, 0.3)
        assert profile.reaction_delay == 300
        assert profile.action_delay == 300

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            ReactionProfile(reaction_delay=-1, action_delay=0)


class TestProcess:
    def test_wake_fires(self):
        scheduler = Scheduler()
        process = Process("p", scheduler, ReactionProfile.conforming(DELTA))
        fired = []
        process.wake_after(10, lambda: fired.append(scheduler.now))
        scheduler.run()
        assert fired == [10]

    def test_halt_drops_pending(self):
        scheduler = Scheduler()
        process = Process("p", scheduler, ReactionProfile.conforming(DELTA))
        fired = []
        process.wake_after(10, lambda: fired.append("should not fire"))
        scheduler.at(5, process.halt)
        scheduler.run()
        assert fired == []
        assert process.is_halted

    def test_wake_after_passes_its_arguments(self):
        scheduler = Scheduler()
        process = Process("p", scheduler, ReactionProfile.conforming(DELTA))
        fired = []
        process.wake_after(10, fired.append, "x")
        process.observe_after(fired.append, "y")
        assert scheduler.run() == 2
        assert fired == ["x", "y"]

    def test_observe_after_uses_reaction_delay(self):
        scheduler = Scheduler()
        process = Process("p", scheduler, ReactionProfile(reaction_delay=7, action_delay=3))
        times = []
        process.observe_after(lambda: times.append(scheduler.now))
        scheduler.run()
        assert times == [7]


class TestTrace:
    def test_record_and_query(self):
        trace = Trace()
        trace.record(5, CONTRACT_PUBLISHED, "alice", arc=["A", "B"])
        trace.record(9, ARC_TRIGGERED, "bob", arc=["A", "B"])
        assert trace.count(CONTRACT_PUBLISHED) == 1
        assert trace.last_time(ARC_TRIGGERED) == 9
        assert trace.last_time("missing") is None

    def test_times_by_arc_keeps_earliest(self):
        trace = Trace()
        trace.record(9, ARC_TRIGGERED, "x", arc=["A", "B"])
        trace.record(5, ARC_TRIGGERED, "y", arc=["A", "B"])
        assert trace.times_by_arc(ARC_TRIGGERED) == {("A", "B"): 5}

    def test_first_with_match(self):
        trace = Trace()
        trace.record(1, "k", "x", arc=["A", "B"], n=1)
        trace.record(2, "k", "x", arc=["C", "D"], n=2)
        event = trace.first("k", n=2)
        assert event is not None and event.time == 2

    def test_arc_extraction(self):
        trace = Trace()
        trace.record(1, "k", "x", arc=["A", "B"])
        trace.record(2, "k", "x")
        # record() is the hot path and returns nothing; the materialised
        # views carry the arc accessor.
        event, plain = trace.events()
        assert event.arc() == ("A", "B")
        assert plain.arc() is None

    def test_format_timeline(self):
        trace = Trace()
        trace.record(1000, CONTRACT_PUBLISHED, "alice", arc=["A", "B"])
        text = trace.format_timeline(delta=1000)
        assert "1.00Δ" in text and "A->B" in text

    def test_format_timeline_filters_kinds(self):
        trace = Trace()
        trace.record(1, "a", "x")
        trace.record(2, "b", "x")
        text = trace.format_timeline(kinds=["a"])
        assert "a" in text and "b " not in text


class TestFaults:
    def test_crash_needs_trigger(self):
        with pytest.raises(SimulationError):
            Crash()

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            Crash(at_time=-5)

    def test_plan_chaining(self):
        plan = FaultPlan().crash("a", at_time=5).crash("b", at_point=CrashPoint.AT_START)
        assert plan.crashed_parties() == {"a", "b"}
        assert plan.crash_for("a").at_time == 5
        assert plan.crash_for("c") is None

    def test_none_plan_empty(self):
        assert FaultPlan.none().crashed_parties() == set()
