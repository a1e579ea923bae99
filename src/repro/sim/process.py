"""Party processes and their timing profiles.

A :class:`Process` is anything that reacts to chain events inside the
simulation.  Its :class:`ReactionProfile` encodes the paper's timing
assumption: ``Δ`` is "enough time for one party to publish a smart contract
... and for the other party to detect the change", i.e. every conforming
observe-then-act round trip fits within ``Δ``.

* ``reaction_delay`` — ticks between a record landing on a chain and the
  party waking up having observed it;
* ``action_delay`` — ticks between the party deciding to act and the
  resulting transaction landing on a chain.

For a conforming party ``reaction_delay + action_delay <= Δ`` must hold;
the default profile uses ``0.45·Δ`` total, strictly below ``Δ/2``, which
keeps the paper's strict timeout check live for every diameter (see
DESIGN.md §2 and bench E20 for the boundary sweep).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.clock import ticks
from repro.sim.scheduler import Scheduler

DEFAULT_REACTION_FRACTION = 0.25
DEFAULT_ACTION_FRACTION = 0.20


@dataclass(frozen=True)
class ReactionProfile:
    """Observation and action latencies for one party, in ticks."""

    reaction_delay: int
    action_delay: int

    def __post_init__(self) -> None:
        if self.reaction_delay < 0 or self.action_delay < 0:
            raise SimulationError("delays must be non-negative")

    @property
    def round_trip(self) -> int:
        return self.reaction_delay + self.action_delay

    def is_conforming(self, delta: int) -> bool:
        """Whether this profile honours the paper's Δ assumption."""
        return self.round_trip <= delta

    @classmethod
    def conforming(cls, delta: int) -> "ReactionProfile":
        """The default conforming profile (0.45·Δ round trip)."""
        return cls(
            reaction_delay=ticks(delta, DEFAULT_REACTION_FRACTION),
            action_delay=ticks(delta, DEFAULT_ACTION_FRACTION),
        )

    @classmethod
    def fractions(cls, delta: int, reaction: float, action: float) -> "ReactionProfile":
        """A profile from Δ-fractions, e.g. ``fractions(delta, 0.5, 0.5)``."""
        return cls(reaction_delay=ticks(delta, reaction), action_delay=ticks(delta, action))

    @classmethod
    def sluggish(cls, delta: int) -> "ReactionProfile":
        """The slowest still-conforming profile: a full Δ round trip."""
        half = delta // 2
        return cls(reaction_delay=half, action_delay=delta - half)


class Process:
    """Base class for simulated parties and services.

    Subclasses receive the shared scheduler and use :meth:`wake_after` /
    :meth:`observe_after` to schedule their own methods, with their
    arguments, at the right latency.  A halted process never runs a
    queued call: the scheduler checks :attr:`is_halted`, the one
    attribute every scheduled owner provides.
    """

    def __init__(self, name: str, scheduler: Scheduler, profile: ReactionProfile) -> None:
        self.name = name
        self.scheduler = scheduler
        self.profile = profile
        self._halted = False

    # -- lifecycle ---------------------------------------------------------------

    def halt(self) -> None:
        """Crash the process: every pending and future callback is dropped.

        Models the paper's "if any party halts" failure mode.
        """
        self._halted = True

    @property
    def is_halted(self) -> bool:
        return self._halted

    # -- scheduling helpers --------------------------------------------------------

    def wake_after(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay`` ticks unless halted by
        then: an entry owned by this process (:meth:`Scheduler.wake`)."""
        self.scheduler.wake(self, delay, fn, args)

    def observe_after(self, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` one reaction delay from now."""
        self.scheduler.wake(self, self.profile.reaction_delay, fn, args)

    def __repr__(self) -> str:
        status = "halted" if self._halted else "live"
        return f"{type(self).__name__}({self.name!r}, {status})"
