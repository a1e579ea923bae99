"""Unit tests for the clock, priority bands, and scheduler."""

import pytest

from repro.errors import SchedulerError, SimulationError
from repro.sim.clock import Clock, ticks
from repro.sim.events import Priority
from repro.sim.scheduler import SLICE_EVENTS, Scheduler


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0

    def test_advance(self):
        clock = Clock()
        clock.advance_to(10)
        assert clock.now == 10

    def test_no_backward(self):
        clock = Clock(5)
        with pytest.raises(SimulationError):
            clock.advance_to(4)

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            Clock(-1)


class TestTicks:
    def test_basic(self):
        assert ticks(1000, 0.45) == 450

    def test_zero(self):
        assert ticks(1000, 0.0) == 0

    def test_never_rounds_positive_to_zero(self):
        assert ticks(10, 0.01) == 1

    def test_rounds_half_up(self):
        assert ticks(10, 0.25) == 3

    def test_bad_delta(self):
        with pytest.raises(SimulationError):
            ticks(0, 0.5)

    def test_negative_multiple(self):
        with pytest.raises(SimulationError):
            ticks(10, -0.1)


class TestSchedulerOrdering:
    def test_time_order(self):
        scheduler = Scheduler()
        fired = []
        scheduler.at(20, lambda: fired.append("late"))
        scheduler.at(10, lambda: fired.append("early"))
        scheduler.run()
        assert fired == ["early", "late"]

    def test_priority_breaks_ties(self):
        scheduler = Scheduler()
        fired = []
        scheduler.at(10, lambda: fired.append("wake"), priority=Priority.WAKE)
        scheduler.at(10, lambda: fired.append("chain"), priority=Priority.CHAIN)
        scheduler.at(10, lambda: fired.append("control"), priority=Priority.CONTROL)
        scheduler.run()
        assert fired == ["chain", "wake", "control"]

    def test_insertion_order_breaks_remaining_ties(self):
        scheduler = Scheduler()
        fired = []
        for i in range(5):
            scheduler.at(10, lambda i=i: fired.append(i))
        scheduler.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_after_is_relative(self):
        scheduler = Scheduler()
        times = []
        scheduler.at(10, lambda: scheduler.after(5, lambda: times.append(scheduler.now)))
        scheduler.run()
        assert times == [15]

    def test_run_returns_count(self):
        scheduler = Scheduler()
        for i in range(4):
            scheduler.at(i, lambda: None)
        assert scheduler.run() == 4


class TestSchedulerGuards:
    def test_no_scheduling_in_past(self):
        scheduler = Scheduler()
        scheduler.at(10, lambda: None)
        scheduler.run()
        with pytest.raises(SchedulerError):
            scheduler.at(5, lambda: None)

    def test_past_time_error_names_tick_clock_and_band(self):
        scheduler = Scheduler()
        scheduler.at(10, lambda: None)
        scheduler.run()
        with pytest.raises(SchedulerError, match=r"tick 5 in priority band CHAIN.* at 10"):
            scheduler.at(5, lambda: None, priority=Priority.CHAIN)

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulerError):
            Scheduler().after(-1, lambda: None)

    def test_event_budget(self):
        scheduler = Scheduler(max_events=10)

        def reschedule():
            scheduler.after(1, reschedule)

        scheduler.at(0, reschedule)
        with pytest.raises(SchedulerError):
            scheduler.run()

    def test_not_reentrant(self):
        scheduler = Scheduler()
        errors = []

        def nested():
            try:
                scheduler.run()
            except SchedulerError as e:
                errors.append(e)

        scheduler.at(0, nested)
        scheduler.run()
        assert len(errors) == 1


class TestTicksBoundary:
    """Half-up rounding at the 0-boundary (delays must never vanish)."""

    def test_half_up_below_half_bumps_to_one(self):
        # 0.4 ticks would round to 0; a positive multiple must cost >= 1.
        assert ticks(10, 0.04) == 1

    def test_half_up_at_exactly_half(self):
        assert ticks(10, 0.05) == 1
        assert ticks(1000, 0.0005) == 1

    def test_zero_multiple_stays_zero(self):
        assert ticks(1000, 0.0) == 0

    def test_tiny_positive_multiple_never_zero(self):
        assert ticks(1_000_000, 1e-12) == 1


class TestEventBudgetExhaustion:
    """A runaway strategy must raise, not hang the simulation."""

    def test_raises_scheduler_error_not_hang(self):
        scheduler = Scheduler(max_events=50)

        def reschedule():
            scheduler.after(0, reschedule)  # same-tick livelock

        scheduler.at(0, reschedule)
        with pytest.raises(SchedulerError, match="event budget"):
            scheduler.run()

    def test_budget_boundary_is_exact(self):
        scheduler = Scheduler(max_events=5)
        fired = []
        for i in range(5):
            scheduler.at(i, lambda i=i: fired.append(i))
        assert scheduler.run() == 5  # exactly the budget is fine
        assert fired == [0, 1, 2, 3, 4]
        scheduler.at(10, lambda: fired.append(10))
        with pytest.raises(SchedulerError, match="event budget"):
            scheduler.run()  # the budget spans run() calls

    def test_budget_exhaustion_leaves_scheduler_reusable_state(self):
        scheduler = Scheduler(max_events=3)
        for i in range(10):
            scheduler.at(i, lambda: None)
        with pytest.raises(SchedulerError):
            scheduler.run()
        # The guard released the running flag; pending work is inspectable.
        assert scheduler.pending() > 0


class TestClockEdges:
    def test_advance_to_now_is_allowed(self):
        clock = Clock(7)
        clock.advance_to(7)
        assert clock.now == 7

    def test_backward_rejection_message_names_both_times(self):
        clock = Clock(9)
        with pytest.raises(SimulationError, match="9.*5"):
            clock.advance_to(5)

    def test_backward_rejection_leaves_clock_unchanged(self):
        clock = Clock(9)
        with pytest.raises(SimulationError):
            clock.advance_to(5)
        assert clock.now == 9


class TestSameTickScheduling:
    def test_scheduling_at_now_with_equal_priority_preserves_seq(self):
        """Events added at the current tick mid-run fire in creation order."""
        scheduler = Scheduler()
        fired = []

        def spawn():
            for i in range(4):
                scheduler.after(0, lambda i=i: fired.append(i))

        scheduler.at(10, spawn)
        scheduler.run()
        assert fired == [0, 1, 2, 3]

    def test_at_now_interleaves_with_preexisting_same_tick_events(self):
        scheduler = Scheduler()
        fired = []
        scheduler.at(10, lambda: fired.append("first"))
        scheduler.at(
            10, lambda: scheduler.at(10, lambda: fired.append("spawned"))
        )
        scheduler.at(10, lambda: fired.append("third"))
        scheduler.run()
        # The spawned event has a later seq than everything pre-queued.
        assert fired == ["first", "third", "spawned"]


class TestWatchedRun:
    def test_stops_after_the_growing_event_and_resumes_the_tick(self):
        scheduler = Scheduler()
        fired, watched = [], []
        scheduler.at(1, lambda: fired.append("a"))
        scheduler.at(1, lambda: (fired.append("b"), watched.append("b")))
        scheduler.at(1, lambda: fired.append("c"))
        scheduler.at(2, lambda: fired.append("d"))
        assert scheduler.run(watch=watched) == 2
        assert fired == ["a", "b"] and scheduler.now == 1
        # The rest of tick 1 fires first, in its original order.
        assert scheduler.run(watch=watched) == 2
        assert fired == ["a", "b", "c", "d"]
        assert scheduler.pending() == 0

    def test_budget_still_raises(self):
        scheduler = Scheduler(max_events=50)

        def reschedule():
            scheduler.after(0, reschedule)  # same-tick livelock

        scheduler.at(0, reschedule)
        with pytest.raises(SchedulerError, match="event budget"):
            scheduler.run(watch=[])

    def test_cap_returns_without_growth(self):
        scheduler = Scheduler()
        for i in range(SLICE_EVENTS + 10):
            scheduler.at(i // 3, lambda: None)
        assert scheduler.run(watch=[]) == SLICE_EVENTS
        assert scheduler.pending() == 10
        assert scheduler.run(watch=[]) == 10


class _Owner:
    """An owner with only the attribute the scheduler reads, as a test
    double or a non-``Process`` party provides it: no ``_halted``."""

    def __init__(self):
        self.is_halted = False


class TestEventsAsData:
    def test_entries_call_fn_with_args_in_order(self):
        scheduler = Scheduler()
        owner, fired = _Owner(), []
        scheduler.wake(owner, 5, fired.append, ("b",))
        scheduler.wake(owner, 0, fired.append, ("a",))
        scheduler.wake(None, 5, fired.append, ("c",))
        assert scheduler.run() == 3
        assert fired == ["a", "b", "c"] and scheduler.now == 5

    def test_halted_owner_entries_count_but_do_not_call(self):
        scheduler = Scheduler()
        owner, fired = _Owner(), []
        scheduler.wake(owner, 1, fired.append, ("before",))
        scheduler.at(2, lambda: setattr(owner, "is_halted", True))
        scheduler.wake(owner, 3, fired.append, ("after",))
        scheduler.wake(owner, 3, fired.append, ("after, too",))
        assert scheduler.run() == 4
        assert fired == ["before"]
        assert scheduler.now == 3 and scheduler.pending() == 0

    def test_step_skips_a_halted_owner_entry_too(self):
        scheduler = Scheduler()
        owner, fired = _Owner(), []
        owner.is_halted = True
        scheduler.wake(owner, 4, fired.append, ("never",))
        entry = scheduler.step()
        assert entry is not None and entry[0] == 4 and entry[5] is owner
        assert fired == [] and scheduler.step() is None

    def test_negative_wake_delay_rejected(self):
        with pytest.raises(SchedulerError):
            Scheduler().wake(None, -1, print, ())
