"""The discrete-event scheduler driving every simulation.

A thin, deterministic priority-queue engine: callers schedule callbacks at
absolute times or after delays, and :meth:`Scheduler.run` fires them in
``(time, priority, seq)`` order, advancing the shared :class:`Clock`.
An event is data, not a closure: a queue entry is the plain tuple
``(time, priority, seq, fn, args, owner)``, fired as ``fn(*args)``.
``seq`` is unique, so the heap's tuple comparison never reaches ``fn``.
A process's wake (:meth:`Scheduler.wake`) names the process as its
``owner``: once the owner ``is_halted``, the entry still fires — it is
popped and counted, so ``events_fired`` does not depend on who halted
when — but its call is skipped.  :meth:`Scheduler.at` and
:meth:`Scheduler.after` queue ownerless entries, which always call.
An event budget guards against runaway simulations (a deviating-strategy
bug could otherwise loop forever).

:meth:`Scheduler.run` can also fire a *slice*: given a ``watch``ed
sequence, it returns right after the first event that grows it, or
after :data:`SLICE_EVENTS` events, whichever comes first.  The
execution-session layer watches the simulation trace this way, so a
caller can pause at every protocol milestone without paying a call per
event.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Sized

from repro.errors import SchedulerError
from repro.sim.clock import Clock
from repro.sim.events import Priority

#: One queued event: ``(time, priority, seq, fn, args, owner)``; it
#: calls ``fn(*args)`` unless ``owner`` is set and halted.
Entry = tuple[int, int, int, Callable[..., None], tuple[Any, ...], Any]

#: The most events one watched :meth:`Scheduler.run` call fires.  A
#: stretch of events that never grows the watched sequence still hands
#: control back this often, so a caller's deadline and abort checks run.
SLICE_EVENTS = 256

_WAKE = Priority.WAKE


class Scheduler:
    """Deterministic discrete-event loop."""

    def __init__(self, clock: Clock | None = None, max_events: int = 2_000_000) -> None:
        self.clock = clock if clock is not None else Clock()
        self._queue: list[Entry] = []
        self._seq = 0
        self._fired = 0
        self._max_events = max_events
        self._running = False

    # -- scheduling -------------------------------------------------------------

    def at(
        self, when: int, action: Callable[[], None], priority: int = Priority.WAKE
    ) -> None:
        """Schedule ``action`` at absolute tick ``when``."""
        if when < self.clock.now:
            raise SchedulerError(
                f"cannot schedule an event at tick {when} in priority band "
                f"{Priority(priority).name}: the clock is already at {self.clock.now}"
            )
        heappush(self._queue, (when, priority, self._seq, action, (), None))
        self._seq += 1

    def after(
        self, delay: int, action: Callable[[], None], priority: int = Priority.WAKE
    ) -> None:
        """Schedule ``action`` ``delay`` ticks from now."""
        if delay < 0:
            raise SchedulerError("delay must be non-negative")
        heappush(self._queue, (self.clock.now + delay, priority, self._seq, action, (), None))
        self._seq += 1

    def wake(
        self, owner: Any, delay: int, fn: Callable[..., None], args: tuple[Any, ...]
    ) -> None:
        """Schedule ``fn(*args)`` ``delay`` ticks from now, in the
        :attr:`~repro.sim.events.Priority.WAKE` band, on behalf of
        ``owner``: the entry fires either way, but calls nothing if
        ``owner.is_halted`` by then (``None``: no owner, always calls)."""
        if delay < 0:
            raise SchedulerError("delay must be non-negative")
        heappush(self._queue, (self.clock.now + delay, _WAKE, self._seq, fn, args, owner))
        self._seq += 1

    # -- running -----------------------------------------------------------------

    def _budget_exceeded(self) -> SchedulerError:
        return SchedulerError(
            f"event budget exceeded ({self._max_events}); "
            "likely a livelock in a party strategy"
        )

    def step(self) -> Entry | None:
        """Fire exactly the next event; returns its entry (``None`` when drained).

        Shares the clock, ordering, and event budget with :meth:`run` —
        a run driven step-by-step fires the identical event sequence.
        This is what the execution-session layer uses to pause at
        protocol milestones.
        """
        if self._running:
            raise SchedulerError("scheduler is not re-entrant")
        if not self._queue:
            return None
        if self._fired >= self._max_events:
            raise self._budget_exceeded()
        self._running = True
        try:
            entry = heappop(self._queue)
            self.clock.advance_to(entry[0])
            self._fired += 1
            _, _, _, fn, args, owner = entry
            if owner is None or not owner.is_halted:
                fn(*args)
        finally:
            self._running = False
        return entry

    def run(self, watch: Sized | None = None) -> int:
        """Fire events in order until the queue drains.

        Returns the number of events fired.  New events may be scheduled
        while running.

        With ``watch`` given, also return right after the first event that
        changes ``len(watch)``, or once :data:`SLICE_EVENTS` events have
        fired.  Either stop can fall inside a tick; the next call fires
        the rest of that tick in the same order.
        """
        if self._running:
            raise SchedulerError("scheduler is not re-entrant")
        self._running = True
        fired = 0
        budget = self._max_events - self._fired
        queue = self._queue
        clock = self.clock
        mark = len(watch) if watch is not None else 0
        try:
            while queue:
                tick = queue[0][0]
                # Batched same-tick dispatch: advance the clock once,
                # then drain every event at this tick.  An event fired
                # here may schedule more work at this very tick — it
                # gets a larger seq, heaps after the current entries,
                # and is drained by this same inner loop, so the firing
                # order is byte-identical to the one-pop-per-iteration
                # loop (and to a step()-driven session).
                clock.advance_to(tick)
                while queue and queue[0][0] == tick:
                    if fired == budget:
                        raise self._budget_exceeded()
                    fired += 1
                    _, _, _, fn, args, owner = heappop(queue)
                    if owner is None or not owner.is_halted:
                        fn(*args)
                    if watch is not None and (
                        len(watch) != mark or fired == SLICE_EVENTS
                    ):
                        return fired
        finally:
            self._fired += fired
            self._running = False
        return fired

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def cancel_pending(self) -> int:
        """Drop every queued event without firing it; returns the count.

        The clock does not move and already-fired history is untouched —
        this is the primitive :meth:`repro.api.Execution.abort` uses to
        stop a session cleanly between events.  Not callable from inside
        a firing event (the loop holds a popped reference the queue no
        longer knows about).
        """
        if self._running:
            raise SchedulerError("cannot cancel events while the scheduler runs")
        dropped = len(self._queue)
        self._queue.clear()
        return dropped

    @property
    def now(self) -> int:
        return self.clock.now
