"""The protocol-milestone vocabulary and its trace-derived tracker.

The paper's guarantees are phase-structured: Phase One propagates escrow
contracts *against* the arc direction, Phase Two propagates secrets back
*along* it, and every claim — Theorem 4.2's all-``DEAL``, Theorem 4.9's
no-``UNDERWATER``, the strong Nash equilibrium — is really a statement
about what an adversary can do *between* those phases.  This module
names the boundaries so the execution-session layer
(:mod:`repro.api.execution`) can expose them as typed, inspectable
events rather than hiding them inside a black-box run:

``phase1-start``
    The protocol starting time ``T`` was reached; leaders are about to
    publish (§4.2: the swap spec names a start "at least Δ in the
    future").  Emitted once, with no party/arc.

``contract-escrowed``
    One arc's escrow contract landed on its chain (Phase One progress;
    ``party`` is the publisher, ``arc`` the escrowed arc).

``secret-released``
    A leader secret became public: a hashlock was unlocked on some arc's
    chain, or a §4.5 broadcast-chain reveal.  This is the protocol's
    point of no return — once a secret is out, Phase Two deadlines are
    live and a straggler's slowness turns from lateness into damage.

``phase2-complete``
    Every escrowed contract has left escrow (triggered or refunded).
    Emitted once, at the model time of the settling event, only for
    runs that escrowed at least one contract.

``settled``
    The simulation quiesced: no scheduled event remains.  Always the
    final milestone; its time is the final clock reading.

Milestones are *derived* from the :class:`~repro.sim.trace.Trace` — the
tracker never touches simulation state, so observing milestones cannot
perturb a run (the same trace always yields the same milestone
sequence, which is what makes ``Engine.open()`` byte-compatible with
the one-shot ``Engine.run()``).

A :class:`Milestone` is an immutable record kept as a slotted tuple
(a run holds ``1 + |A| + |A|·|L| + 2`` of them, and the analytic
fast path's shape memo keeps up to 256 runs' worth): assignment raises
:class:`dataclasses.FrozenInstanceError`, it equals only another
``Milestone`` with the same fields, it hashes as its fields, and
:meth:`Milestone.to_dict` is the wire form.  Against another type
``==`` answers ``False`` rather than ``NotImplemented``: a tuple
subclass that deferred would let a plain tuple's ``__eq__`` call it
equal.  Unlike a frozen dataclass it is a tuple underneath, so it
orders (``<`` compares fields in order), indexes, unpacks, has a
``len`` of 5 and a ``_replace``; nothing in the package relies on
those.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any, NamedTuple

from repro.errors import SimulationError
from repro.sim import trace as tr
from repro.sim.trace import Trace

Arc = tuple[str, str]

PHASE1_START = "phase1-start"
CONTRACT_ESCROWED = "contract-escrowed"
SECRET_RELEASED = "secret-released"
PHASE2_COMPLETE = "phase2-complete"
SETTLED = "settled"

#: The full milestone vocabulary, in canonical phase order.
MILESTONE_KINDS: tuple[str, ...] = (
    PHASE1_START,
    CONTRACT_ESCROWED,
    SECRET_RELEASED,
    PHASE2_COMPLETE,
    SETTLED,
)


def check_milestone_kind(kind: str) -> str:
    """Validate one milestone-kind name; returns it for chaining."""
    if kind not in MILESTONE_KINDS:
        known = ", ".join(MILESTONE_KINDS)
        raise SimulationError(
            f"unknown milestone kind {kind!r}; the vocabulary is: {known}"
        )
    return kind


class Milestone(NamedTuple):
    """One typed protocol event observed during an execution session.

    ``index`` is the position in the session's milestone sequence (dense,
    starting at 0); ``time`` is model time (ticks).  ``party``/``arc``
    are ``None`` for run-level milestones (``phase1-start``,
    ``phase2-complete``, ``settled``, and broadcast secret reveals).
    A slotted tuple that behaves as a frozen record (see the module
    notes).
    """

    index: int
    time: int
    kind: str
    party: str | None = None
    arc: Arc | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "time": self.time,
            "kind": self.kind,
            "party": self.party,
            "arc": list(self.arc) if self.arc is not None else None,
        }

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        return type(other) is Milestone and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return tuple.__hash__(self)


#: trace kinds that settle an escrowed arc (Phase Two resolution).
_SETTLING_KINDS = frozenset({tr.ARC_TRIGGERED, tr.ARC_REFUNDED})
#: trace kinds that reveal a leader secret.
_RELEASE_KINDS = frozenset({tr.HASHLOCK_UNLOCKED, tr.SECRET_BROADCAST})


class MilestoneTracker:
    """Incrementally translates a :class:`Trace` into milestones.

    The tracker keeps a cursor into the (append-only) trace, so it can
    be polled after every scheduler event — the execution session's
    stepping mode — or exactly once after a full run; both yield the
    identical milestone sequence.
    """

    def __init__(self, trace: Trace) -> None:
        self._trace = trace
        self._cursor = 0
        self._milestones: list[Milestone] = []
        self._counts: dict[str, int] = {}
        self._escrowed: set[Arc] = set()
        self._resolved: set[Arc] = set()
        self._phase2_complete = False
        self._started = False
        self._finished = False

    # -- emission ------------------------------------------------------------

    @property
    def milestones(self) -> tuple[Milestone, ...]:
        return tuple(self._milestones)

    def counts(self) -> dict[str, int]:
        """Milestone occurrences by kind (kinds never seen are absent)."""
        return dict(self._counts)

    def _emit(
        self, time: int, kind: str, party: str | None = None, arc: Arc | None = None
    ) -> Milestone:
        milestone = Milestone(
            index=len(self._milestones), time=time, kind=kind, party=party, arc=arc
        )
        self._milestones.append(milestone)
        self._counts[kind] = self._counts.get(kind, 0) + 1
        return milestone

    # -- lifecycle -----------------------------------------------------------

    def start(self, start_time: int) -> list[Milestone]:
        """Emit ``phase1-start``; call once when the session begins."""
        if self._started:
            raise SimulationError("milestone tracker already started")
        self._started = True
        return [self._emit(start_time, PHASE1_START)]

    def poll(self) -> list[Milestone]:
        """Translate trace entries appended since the last poll.

        Reads the trace's columns directly (:meth:`Trace.columns_since`)
        — the per-step polling loop materialises no event objects.
        """
        times, kinds, parties, details = self._trace.columns_since(self._cursor)
        self._cursor += len(times)
        fresh: list[Milestone] = []
        for time, kind, party, detail in zip(times, kinds, parties, details):
            value = detail.get("arc")
            arc: Arc | None = (value[0], value[1]) if value is not None else None
            if kind == tr.CONTRACT_PUBLISHED and arc is not None:
                self._escrowed.add(arc)
                fresh.append(self._emit(time, CONTRACT_ESCROWED, party, arc))
            elif kind in _RELEASE_KINDS:
                fresh.append(self._emit(time, SECRET_RELEASED, party, arc))
            elif kind in _SETTLING_KINDS and arc is not None:
                self._resolved.add(arc)
                if (
                    not self._phase2_complete
                    and self._escrowed
                    and self._escrowed <= self._resolved
                ):
                    self._phase2_complete = True
                    fresh.append(self._emit(time, PHASE2_COMPLETE))
        return fresh

    def finish(self, now: int) -> list[Milestone]:
        """Emit the terminal ``settled`` milestone (idempotent)."""
        if self._finished:
            return []
        self._finished = True
        fresh = self.poll()
        fresh.append(self._emit(now, SETTLED))
        return fresh
