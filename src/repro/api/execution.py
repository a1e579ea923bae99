"""Execution sessions: the instrumented, milestone-driven engine lifecycle.

``Engine.run(scenario)`` answers *what happened*; an :class:`Execution`
answers *what is happening*.  ``Engine.open(scenario)`` prepares the
simulation (topology validation, key/secret provisioning, party wiring)
and hands back a session object that owns the prepared
:class:`~repro.sim.harness.SimulationHarness` and exposes the run as a
controllable process:

* :meth:`Execution.step` — fire exactly one scheduler event, returning
  any protocol milestones it produced;
* :meth:`Execution.advance` — fire events until one produces milestones
  (or the run settles) and return them: one slice per milestone batch,
  the driving primitive for callers that pause at milestones;
* :meth:`Execution.run_until` — advance to the next matching milestone
  (``phase1-start``, ``contract-escrowed``, ``secret-released``,
  ``phase2-complete``, ``settled`` — see :mod:`repro.sim.milestones`),
  leaving the simulation paused *between* events;
* :meth:`Execution.add_probe` — observe milestones mid-run through a
  read-only :class:`ExecutionView` (probes cannot perturb the run;
  mutation of the view raises);
* :meth:`Execution.intervene` — mutate simulation state (party timing
  profiles, faults, extra events) when a milestone fires: this is the
  hook adaptive adversaries like
  :class:`~repro.sim.timing.AdaptiveStragglerTiming` plug into;
* :meth:`Execution.run_to_completion` — drain the queue and finalise to
  the exact :class:`~repro.api.report.RunReport` the one-shot
  ``Engine.run`` returns;
* :meth:`Execution.abort` — cancel a prepared or partially-run session
  cleanly: pending events are dropped, the trace is finalised (the
  terminal ``settled`` milestone still fires), and the chain state *as
  of the abort* is classified into a report flagged
  ``extra["aborted"]``.  Idempotent, and safe at any lifecycle point —
  this is how a serving layer (:mod:`repro.serve`) evicts stuck or
  rate-limited jobs.

Determinism contract: milestones are *derived* from the simulation
trace, so an uninstrumented session (no probes, no interventions)
drains the scheduler wholesale and produces a byte-identical report —
``open()`` + ``run_to_completion()`` equals ``run()``, run keys and
warm stores untouched.  A stepped or advanced session fires the
identical event sequence, pausing after the same events, so pausing
cannot change outcomes either; only registered interventions can.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping

from repro.api.report import RunReport
from repro.api.scenario import Scenario
from repro.errors import ExecutionError
from repro.sim.harness import SimulationHarness
from repro.sim.milestones import (
    MILESTONE_KINDS,
    Milestone,
    MilestoneTracker,
    check_milestone_kind,
)
from repro.sim.scheduler import SLICE_EVENTS

Arc = tuple[str, str]


@dataclass(frozen=True)
class PreparedSimulation:
    """What an engine's ``prepare()`` hands to the session layer.

    ``finalize(events_fired)`` classifies final chain state into the
    engine's native result object (``SwapResult``/``MultiSwapResult``),
    exactly as a direct ``run()`` of the same assembly does after
    quiescence.
    """

    harness: SimulationHarness
    start_time: int
    finalize: Callable[[int], Any]


@dataclass(frozen=True)
class ExecutionView:
    """A read-only snapshot of session state, handed to probes.

    Frozen, with an immutable counts mapping: a probe that tries to
    assign or mutate raises, which is the lifecycle's guarantee that
    observation cannot perturb a run.
    """

    now: int
    events_fired: int
    pending_events: int
    milestone_counts: Mapping[str, int]
    last_milestone: Milestone | None


@dataclass(frozen=True)
class _Hook:
    """One registered probe or intervention with its milestone filter."""

    action: Callable[..., None]
    kinds: frozenset[str] | None
    party: str | None
    once: bool

    def matches(self, milestone: Milestone) -> bool:
        if self.kinds is not None and milestone.kind not in self.kinds:
            return False
        if self.party is not None and milestone.party != self.party:
            return False
        return True


def _check_kinds(kinds: str | Iterable[str] | None) -> frozenset[str] | None:
    if kinds is None:
        return None
    if isinstance(kinds, str):
        kinds = (kinds,)
    return frozenset(check_milestone_kind(kind) for kind in kinds)


class Execution:
    """One opened engine run: prepared, instrumentable, single-use.

    Built by :meth:`repro.api.Engine.open`; see the module docstring
    for the lifecycle.  The underlying harness is reachable as
    :attr:`harness` (interventions use it to reach parties, scheduler,
    and chains); :attr:`scenario` and :attr:`engine` identify the run.

    A finalised session (completed or aborted) holds no reference
    cycle, so reference counting frees it.  One dropped mid-run keeps
    its queued events, whose methods reach the parties that reach the
    scheduler: only the cycle collector frees it.
    """

    def __init__(
        self,
        engine: str,
        scenario: Scenario,
        prepared: PreparedSimulation,
        wall_start: float | None = None,
    ) -> None:
        self.engine = engine
        self.scenario = scenario
        self.harness = prepared.harness
        self.start_time = prepared.start_time
        self._finalize = prepared.finalize
        self._tracker = MilestoneTracker(self.harness.trace)
        self._probes: list[_Hook] = []
        self._interventions: list[_Hook] = []
        self._dispatched_counts: dict[str, int] = {}
        self._began = False
        self._events_fired = 0
        self._aborted = False
        self._report: RunReport | None = None
        self._wall_start = wall_start if wall_start is not None else time.perf_counter()
        # Adaptive timing models register their interventions here —
        # before the first event, so even a `phase1-start` trigger fires.
        self.harness.timing.install(self)

    # -- introspection -------------------------------------------------------

    @property
    def milestones(self) -> tuple[Milestone, ...]:
        """Every milestone emitted so far, in emission order."""
        return self._tracker.milestones

    def milestone_counts(self) -> dict[str, int]:
        """Milestone occurrences by kind (kinds never seen are absent)."""
        return self._tracker.counts()

    @property
    def events_fired(self) -> int:
        return self._events_fired

    @property
    def began(self) -> bool:
        return self._began

    @property
    def quiesced(self) -> bool:
        """Whether the event queue has drained (after beginning)."""
        return self._began and self.harness.scheduler.pending() == 0

    @property
    def finalised(self) -> bool:
        return self._report is not None

    @property
    def aborted(self) -> bool:
        """Whether this session was finalised by :meth:`abort`."""
        return self._aborted

    def view(self) -> ExecutionView:
        """The current read-only state snapshot (what probes receive)."""
        milestones = self._tracker.milestones
        return ExecutionView(
            now=self.harness.scheduler.now,
            events_fired=self._events_fired,
            pending_events=self.harness.scheduler.pending(),
            milestone_counts=MappingProxyType(self._tracker.counts()),
            last_milestone=milestones[-1] if milestones else None,
        )

    # -- instrumentation -----------------------------------------------------

    def add_probe(
        self,
        probe: Callable[[Milestone, ExecutionView], None],
        kinds: str | Iterable[str] | None = None,
        party: str | None = None,
    ) -> "Execution":
        """Observe matching milestones as they fire.

        ``probe(milestone, view)`` is called synchronously after each
        matching milestone; both arguments are immutable, so a probe can
        watch but never steer.  ``kinds=None`` matches every milestone.
        Returns ``self`` for chaining.
        """
        if self._began:
            raise ExecutionError(
                "probes must be registered before the execution begins"
            )
        self._probes.append(_Hook(probe, _check_kinds(kinds), party, once=False))
        return self

    def intervene(
        self,
        kinds: str | Iterable[str],
        action: Callable[["Execution", Milestone], None],
        party: str | None = None,
        once: bool = True,
    ) -> "Execution":
        """Mutate the simulation when a matching milestone fires.

        ``action(execution, milestone)`` runs synchronously between
        scheduler events, with full access to the harness — swap a
        party's timing profile, halt a party, schedule extra events.
        ``once=True`` (default) fires on the first match only; with
        ``party`` given, only that party's milestones match.  Returns
        ``self`` for chaining.
        """
        if self._began:
            raise ExecutionError(
                "interventions must be registered before the execution begins"
            )
        kind_set = _check_kinds(kinds)
        if kind_set is None:
            raise ExecutionError(
                "an intervention needs at least one milestone kind; "
                f"the vocabulary is: {', '.join(MILESTONE_KINDS)}"
            )
        self._interventions.append(_Hook(action, kind_set, party, once))
        return self

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, fresh: list[Milestone]) -> None:
        for milestone in fresh:
            # Per-milestone counts for probe views: when one scheduler
            # event yields several milestones, each probe must see the
            # state *as of its milestone*, not the whole batch.
            self._dispatched_counts[milestone.kind] = (
                self._dispatched_counts.get(milestone.kind, 0) + 1
            )
            fired: list[_Hook] = []
            for hook in self._interventions:
                if hook.matches(milestone):
                    hook.action(self, milestone)
                    if hook.once:
                        fired.append(hook)
            for hook in fired:
                self._interventions.remove(hook)
            if self._probes:
                view = ExecutionView(
                    now=self.harness.scheduler.now,
                    events_fired=self._events_fired,
                    pending_events=self.harness.scheduler.pending(),
                    milestone_counts=MappingProxyType(
                        dict(self._dispatched_counts)
                    ),
                    last_milestone=milestone,
                )
                for hook in self._probes:
                    if hook.matches(milestone):
                        hook.action(milestone, view)

    def _begin(self) -> None:
        if self._began:
            return
        self._began = True
        self.harness.begin(self.start_time)
        self._dispatch(self._tracker.start(self.start_time))

    def _instrumented(self) -> bool:
        return bool(self._probes or self._interventions)

    # -- driving -------------------------------------------------------------

    def step(self) -> tuple[Milestone, ...] | None:
        """Fire the next scheduler event; returns the milestones it produced.

        The first call also begins the run (scheduling every party's
        ``start`` and emitting ``phase1-start``).  An empty tuple means
        the fired event produced no milestones — most events do not —
        so drive a session with ``while not session.quiesced:
        session.step()`` (or until ``step()`` returns ``None``, which
        only happens once the queue has drained and the terminal
        ``settled`` milestone has already been delivered).
        """
        if self._report is not None:
            raise ExecutionError("this execution is finalised; open a new one")
        first = not self._began
        self._begin()
        initial: list[Milestone] = list(self.milestones[:1]) if first else []
        event = self.harness.scheduler.step()
        if event is None:
            fresh = self._tracker.finish(self.harness.scheduler.now)
            self._dispatch(fresh)
            if not initial and not fresh:
                return None  # drained and settled on an earlier call
            return tuple(initial + fresh)
        self._events_fired += 1
        fresh = self._tracker.poll()
        self._dispatch(fresh)
        if self.harness.scheduler.pending() == 0:
            terminal = self._tracker.finish(self.harness.scheduler.now)
            self._dispatch(terminal)
            fresh = fresh + terminal
        return tuple(initial + fresh)

    def advance(self) -> tuple[Milestone, ...]:
        """Fire events until one produces milestones or the run settles;
        returns those milestones.

        The session pauses right after that event, as :meth:`step` does,
        so over the same events the concatenated results — and what
        probes and interventions see — equal successive ``step()``
        calls.  The first call begins the run and returns
        ``phase1-start`` before any event fires.  A stretch of
        :data:`~repro.sim.scheduler.SLICE_EVENTS` or more events without
        a milestone returns an empty tuple, so a caller regains control
        on a milestone-free stretch; so does a call after the terminal
        ``settled`` milestone.  Drive a session with ``while not
        session.quiesced: session.advance()``.
        """
        if self._report is not None:
            raise ExecutionError("this execution is finalised; open a new one")
        scheduler = self.harness.scheduler
        fresh: list[Milestone] = []
        if not self._began:
            self._begin()
            fresh.extend(self._tracker.milestones)
        fired = 0
        while not fresh and fired < SLICE_EVENTS and scheduler.pending():
            count = scheduler.run(watch=self.harness.trace)
            fired += count
            self._events_fired += count
            fresh = self._tracker.poll()
            self._dispatch(fresh)
        if not scheduler.pending():
            terminal = self._tracker.finish(scheduler.now)
            self._dispatch(terminal)
            fresh += terminal
        return tuple(fresh)

    def run_until(
        self,
        kind: str,
        party: str | None = None,
        arc: Arc | None = None,
    ) -> Milestone | None:
        """Advance until the next milestone matching ``kind`` (and the
        optional ``party``/``arc`` filters); returns it, or ``None`` if
        the run quiesces first.  The simulation is left paused right
        after the event that produced the milestone — interventions and
        direct harness mutation see the protocol mid-flight."""
        check_milestone_kind(kind)
        if self._report is not None:
            raise ExecutionError("this execution is finalised; open a new one")
        while True:
            fresh = self.advance()
            for milestone in fresh:
                if milestone.kind != kind:
                    continue
                if party is not None and milestone.party != party:
                    continue
                if arc is not None and milestone.arc != tuple(arc):
                    continue
                return milestone
            # `settled` is always the final milestone; once it has gone
            # past (or the queue was already drained) nothing new can
            # match.
            if self.quiesced and (
                not fresh or fresh[-1].kind == "settled"
            ):
                return None

    def abort(self, reason: str = "aborted") -> RunReport:
        """Cancel this session and finalise it from its current state.

        Every still-pending scheduler event is dropped (the clock does
        not advance further), the milestone trace is finalised — the
        terminal ``settled`` milestone fires at the abort time — and the
        chain state *as of the abort* is classified exactly as a
        quiesced run would be: contracts still in escrow surface as
        ``stuck_in_escrow``, parties holding them as ``Escrow``
        outcomes.  The report is flagged with
        ``extra["aborted"] = {"reason", "events_cancelled"}`` so no
        downstream consumer mistakes it for a run that settled on its
        own (and warm caches must never store one).

        Idempotent: aborting twice returns the same report, and
        aborting an already-completed session is a no-op returning the
        completed report.  A session that was never stepped can be
        aborted too — it finalises with an empty trace.
        """
        if self._report is not None:
            return self._report
        self._aborted = True
        cancelled = self.harness.scheduler.cancel_pending()
        self._dispatch(self._tracker.finish(self.harness.scheduler.now))
        native = self._finalize(self._events_fired)
        report = RunReport.from_result(
            self.engine,
            self.scenario,
            native,
            time.perf_counter() - self._wall_start,
        )
        report.milestones = self.milestones
        report.extra["aborted"] = {
            "reason": reason,
            "events_cancelled": cancelled,
        }
        self._report = report
        return report

    def run_to_completion(self) -> RunReport:
        """Drain the remaining events and finalise to a :class:`RunReport`.

        Idempotent: repeated calls return the same report.  Without
        probes or interventions the queue drains wholesale (no per-event
        overhead); instrumented sessions :meth:`advance` so hooks fire
        between events.  Either way the event sequence — and therefore
        the report — is identical.
        """
        if self._report is not None:
            return self._report
        self._begin()
        scheduler = self.harness.scheduler
        if self._instrumented():
            while scheduler.pending():
                self.advance()
        else:
            self._events_fired += scheduler.run()
        self._dispatch(self._tracker.finish(scheduler.now))
        native = self._finalize(self._events_fired)
        report = RunReport.from_result(
            self.engine,
            self.scenario,
            native,
            time.perf_counter() - self._wall_start,
        )
        report.milestones = self.milestones
        self._report = report
        return report
