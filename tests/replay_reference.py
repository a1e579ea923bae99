"""Test-only reference for the conforming-cascade replay.

:func:`reference_replay` is the replay ``repro.analysis.predict._replay``
ran before it queued events in one FIFO bucket per tick: every event is
its own heap entry, ordered by ``(when, insertion order)``.  The
bucket replay keeps that order by construction;
``tests/test_replay_parity.py`` holds the two to equal publish times,
Phase Two starts, unlock schedules and late sends, and bench E39 times
them against each other.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any

from repro.analysis.predict import Unlock
from repro.digraph.digraph import Arc, Digraph, Vertex
from repro.errors import AnalysisError


def reference_replay(
    digraph: Digraph,
    leaders: tuple[Vertex, ...],
    latency: dict[Arc, int],
    action: int,
    start: int,
    delta: int,
    expiry: int,
) -> tuple[
    dict[Vertex, int],
    dict[Vertex, int],
    dict[Arc, list[Unlock]],
    dict[tuple[Vertex, int], tuple[int, int]],
]:
    """The FIFO replay with one heap entry per event, keyed by
    ``(when, insertion order)``: ``repro.analysis.predict._replay`` as
    it was before it kept one bucket per tick.  Same arguments, same
    results."""
    lead = set(leaders)
    lock_of = {leader: i for i, leader in enumerate(leaders)}
    heap: list[tuple[Any, ...]] = []
    order = itertools.count()

    def at(when: int, fn: Any, *args: Any) -> None:
        # (when, insertion order) is unique, so fn is never compared.
        heapq.heappush(heap, (when, next(order), fn, args))

    entering = {v: digraph.in_arcs(v) for v in digraph.vertices}
    leaving = {v: digraph.out_arcs(v) for v in digraph.vertices}
    seen: dict[Vertex, set[Arc]] = {v: set() for v in digraph.vertices}
    #: lock -> hashkey path, in learn order (dict preserves insertion).
    known: dict[Vertex, dict[int, tuple[Vertex, ...]]] = {
        v: {} for v in digraph.vertices
    }
    unlocked: dict[Arc, set[int]] = {arc: set() for arc in digraph.arcs}
    publish: dict[Vertex, int] = {}
    phase_two: dict[Vertex, int] = {}
    schedule: dict[Arc, list[Unlock]] = {arc: [] for arc in digraph.arcs}
    late: dict[tuple[Vertex, int], tuple[int, int]] = {}

    def publish_outgoing(v: Vertex, now: int) -> None:
        publish[v] = now
        for arc in leaving[v]:
            at(now + latency[arc], observe_contract, arc[1], arc)

    def observe_contract(v: Vertex, arc: Arc, now: int) -> None:
        if arc in seen[v]:
            return
        seen[v].add(arc)
        # A late-arriving contract releases already-known keys first...
        for i in known[v]:
            schedule_unlock(v, arc, i, now)
        # ... then advances the phase (leaders synchronously, followers
        # one action later), exactly as _on_contract_published does.
        if len(seen[v]) == len(entering[v]):
            if v in lead:
                begin_phase_two(v, now)
            else:
                at(now + action, publish_outgoing, v)

    def begin_phase_two(v: Vertex, now: int) -> None:
        phase_two[v] = now
        i = lock_of[v]
        known[v][i] = (v,)
        for arc in entering[v]:
            schedule_unlock(v, arc, i, now)

    def schedule_unlock(v: Vertex, arc: Arc, i: int, now: int) -> None:
        if arc not in seen[v] or i in unlocked[arc]:
            return
        at(now + action, send_unlock, v, arc, i)

    def send_unlock(v: Vertex, arc: Arc, i: int, now: int) -> None:
        if i in unlocked[arc]:
            return
        path = known[v][i]
        expires = expiry + (len(path) - 1) * delta
        if now >= expires:
            # A rational party does not submit an expired hashkey: the
            # simulator refunds here instead of reaching all-Deal.
            late.setdefault((v, i), (now, expires))
        unlocked[arc].add(i)
        schedule[arc].append((i, path, now))
        at(now + latency[arc], observe_unlock, arc[0], i, path)

    def observe_unlock(w: Vertex, i: int, path: tuple[Vertex, ...], now: int) -> None:
        if i in known[w] or w in path:
            return
        known[w][i] = (w, *path)
        for arc in entering[w]:
            schedule_unlock(w, arc, i, now)

    for v in digraph.vertices:
        if v in lead:
            at(start, publish_outgoing, v)
    while heap:
        when, _, fn, args = heapq.heappop(heap)
        fn(*args, when)

    if any(len(schedule[arc]) != len(leaders) for arc in digraph.arcs):
        raise AnalysisError(
            "analytic replay: conforming cascade quiesced with locked "
            "hashlocks remaining"
        )
    return publish, phase_two, schedule, late
