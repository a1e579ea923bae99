"""Execution traces and metrics.

Every simulation collects a :class:`Trace`: a time-ordered event log
covering contract publications, hashlock unlocks, claims, refunds,
crashes, and protocol-phase transitions.  The benchmark harness derives
all of its reported series from traces:

* the Figure 1/2 timeline (publication and trigger times per arc);
* Theorem 4.7's completion time, compared with ``2·diam(D)·Δ``;
* Theorem 4.10's stored bytes and the ``O(|A|·|L|)`` published bytes;
* per-party outcome classification inputs (which arcs were triggered).

Storage is *columnar*: the log is four parallel arrays (times, kinds,
parties, details) rather than a list of event objects.  Recording — the
simulator's hottest append path, hit once per trace-worthy occurrence —
is four plain ``list.append`` calls with no object construction; the
:class:`TraceEvent` view objects are materialised lazily, only for
consumers that ask for them (:meth:`Trace.events`, iteration).  Bulk
consumers — the milestone tracker's per-step poll, the per-arc timing
queries — read the columns directly and never build an event object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from repro.digraph.digraph import Arc


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped occurrence inside a simulation.

    A *view* over one row of the columnar :class:`Trace` — built on
    demand, not stored; two reads of the same row yield equal (but not
    identical) events.
    """

    time: int
    kind: str
    party: str
    details: dict[str, Any] = field(default_factory=dict)

    def arc(self) -> Arc | None:
        """The arc this event concerns, if any."""
        value = self.details.get("arc")
        if value is None:
            return None
        head, tail = value
        return (head, tail)


def _arc_of(details: dict[str, Any]) -> Arc | None:
    """The arc in one details column entry, if any (no event object)."""
    value = details.get("arc")
    if value is None:
        return None
    head, tail = value
    return (head, tail)


class Trace:
    """An append-only, time-ordered event log for one simulation run.

    Rows live in four parallel arrays; :meth:`record` appends one row.
    The arrays are internal — consumers go through the query methods
    (columnar, no materialisation) or :meth:`events`/iteration (lazy
    :class:`TraceEvent` views).
    """

    __slots__ = ("_times", "_kinds", "_parties", "_details")

    def __init__(self) -> None:
        self._times: list[int] = []
        self._kinds: list[str] = []
        self._parties: list[str] = []
        self._details: list[dict[str, Any]] = []

    def record(self, time: int, kind: str, party: str, **details: Any) -> None:
        """Append one row.  Returns nothing — the hot path constructs no
        event object; use :meth:`events` for materialised views."""
        self._times.append(time)
        self._kinds.append(kind)
        self._parties.append(party)
        self._details.append(details)

    def _row(self, i: int) -> TraceEvent:
        return TraceEvent(
            time=self._times[i],
            kind=self._kinds[i],
            party=self._parties[i],
            details=self._details[i],
        )

    # -- queries -----------------------------------------------------------------

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        if kind is None:
            return [self._row(i) for i in range(len(self._times))]
        return [self._row(i) for i, k in enumerate(self._kinds) if k == kind]

    def columns_since(
        self, index: int
    ) -> tuple[Sequence[int], Sequence[str], Sequence[str], Sequence[dict[str, Any]]]:
        """The ``(times, kinds, parties, details)`` columns from position
        ``index`` on — the zero-materialisation tail read the milestone
        tracker polls after every scheduler event."""
        return (
            self._times[index:],
            self._kinds[index:],
            self._parties[index:],
            self._details[index:],
        )

    def first(self, kind: str, **match: Any) -> TraceEvent | None:
        for i, k in enumerate(self._kinds):
            if k != kind:
                continue
            details = self._details[i]
            if all(details.get(key) == value for key, value in match.items()):
                return self._row(i)
        return None

    def last_time(self, kind: str | None = None) -> int | None:
        if kind is None:
            times = self._times
        else:
            times = [t for t, k in zip(self._times, self._kinds) if k == kind]
        if not times:
            return None
        return max(times)

    def times_by_arc(self, kind: str) -> dict[Arc, int]:
        """Earliest time each arc saw an event of ``kind``."""
        out: dict[Arc, int] = {}
        for i, k in enumerate(self._kinds):
            if k != kind:
                continue
            arc = _arc_of(self._details[i])
            if arc is None:
                continue
            time = self._times[i]
            if arc not in out or time < out[arc]:
                out[arc] = time
        return out

    def count(self, kind: str) -> int:
        return self._kinds.count(kind)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events())

    # -- rendering -----------------------------------------------------------------

    def format_timeline(self, delta: int | None = None, kinds: Iterable[str] | None = None) -> str:
        """A human-readable timeline, optionally restricted to ``kinds``.

        With ``delta`` given, times are also shown as Δ-multiples — the
        units Figures 1 and 2 use.
        """
        wanted = set(kinds) if kinds is not None else None
        lines = []
        for event in self.events():
            if wanted is not None and event.kind not in wanted:
                continue
            stamp = f"t={event.time}"
            if delta:
                stamp += f" ({event.time / delta:.2f}Δ)"
            arc = event.arc()
            where = f" arc={arc[0]}->{arc[1]}" if arc else ""
            extras = {
                k: v for k, v in event.details.items() if k not in {"arc"}
            }
            extra_text = f" {extras}" if extras else ""
            lines.append(f"{stamp:<22} {event.kind:<22} {event.party:<10}{where}{extra_text}")
        return "\n".join(lines)


# Canonical trace event kinds, so tests/benches don't scatter string literals.
CONTRACT_PUBLISHED = "contract_published"
CONTRACT_REJECTED = "contract_rejected"
HASHLOCK_UNLOCKED = "hashlock_unlocked"
ARC_TRIGGERED = "arc_triggered"
ARC_REFUNDED = "arc_refunded"
SECRET_BROADCAST = "secret_broadcast"
PARTY_CRASHED = "party_crashed"
PHASE_STARTED = "phase_started"
PROTOCOL_ABANDONED = "protocol_abandoned"
