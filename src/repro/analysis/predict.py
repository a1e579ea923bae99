"""Closed-form predictions for conforming scenarios (Fig. 3 quantities).

Everything the simulator measures on an all-conforming uniform-timing
run is computable from the swap digraph alone — without running the
simulator.  With ``r = reaction`` and ``a = action`` ticks, start time
``T`` and per-arc chain lag ``lag(u, v)``, one replay of the conforming
cascade (:func:`_replay`) yields every time in the profile:

* **Phase One escrow times** — leaders publish at ``T``; a follower
  ``v`` publishes once every entering contract is observed:
  ``p(v) = max over arcs (u, v) of [p(u) + r + lag(u, v)] + a``
  (well-founded because removing the leaders leaves the follower
  subgraph acyclic — the definition of a feedback vertex set).

* **Phase Two key propagation** — leader ``L`` enters Phase Two at
  ``o(L) = max over arcs (u, L) of [p(u) + r + lag(u, L)]`` and unlocks
  its own entering arcs.  A party ``x`` that knows secret ``i`` unlocks
  chain ``(v, x)`` one action after it both knows the secret and has
  observed that chain's contract (the Phase One gate), and ``v`` learns
  the secret, with ``x``'s hashkey path extended by itself, once that
  unlock is observable.  When two routes deliver a secret at the same
  tick the simulator keeps whichever observation its scheduler fires
  first, so the replay runs the cascade on a FIFO event queue with the
  scheduler's own ordering rule rather than as a shortest-path pass.

* **Deadline feasibility** (§4.1, Theorem 4.2) — a hashkey carrying a
  path of ``ℓ`` arcs expires at ``T + (diam + ℓ + slack)·Δ``; the
  deadline ladder is the table of those expiries for ``ℓ = 0 .. diam``.
  The replay checks every unlock against the expiry of the path it
  actually carries, so the profile is feasible exactly when no unlock
  is sent at or past its expiry.

* **Completion** — an arc is claimed one action after its last unlock
  lands: ``completion = max over arcs of [last landing] + a``, which
  Theorem 4.7 bounds by ``T + (2·diam + slack)·Δ``.

* **Counts and bytes** — ``|A|`` escrows, ``|A|·|L|`` unlock calls and
  ``secret-released`` milestones, and the Theorem 4.10 storage bill:
  every contract stores the digraph encoding, the leader/hashlock/
  timelock vectors, the scalars, its own asset name and endpoints, and
  one path slot per leader.

These formulas are cross-validated byte-for-byte against the full
simulator over every strongly connected topology family in
``tests/test_analysis_parity.py`` (and in CI via ``lab check
--verify``) — that parity is the contract the closed-form fast path
(:mod:`repro.analysis.engine`) must match.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.diagnostics import Diagnostic, warning
from repro.api.scenario import Scenario
from repro.core.spec import (
    resolve_diam,
    resolve_leaders,
    resolve_start,
    stored_fields_size,
)
from repro.digraph.digraph import Arc, Digraph, Vertex
from repro.errors import AnalysisError
from repro.sim.clock import ticks
from repro.sim.milestones import (
    CONTRACT_ESCROWED,
    PHASE1_START,
    PHASE2_COMPLETE,
    SECRET_RELEASED,
    SETTLED,
)

#: One replayed unlock: (lock index, hashkey path, landing tick).
Unlock = tuple[int, tuple[Vertex, ...], int]


@dataclass(frozen=True)
class Prediction:
    """The closed-form run profile of a conforming scenario.

    Times are absolute ticks (the simulator's model time); the
    quantities mirror :class:`repro.api.report.RunReport` so parity is
    a field-by-field comparison.  ``unlock_schedule`` holds, per arc,
    the unlocks that land on its chain in landing order with the
    hashkey path each carries; report synthesis reads it, and it stays
    out of :meth:`to_dict` and equality.
    """

    leaders: tuple[Vertex, ...]
    diam: int
    start_time: int
    delta: int
    publish_times: dict[Vertex, int]
    phase_two_start: dict[Vertex, int]
    deadline_ladder: dict[int, int]
    completion_time: int
    phase_two_bound: int
    escrow_count: int
    unlock_calls: int
    milestone_counts: dict[str, int]
    contract_storage_bytes: int
    deadline_feasible: bool
    unlock_schedule: dict[Arc, list[Unlock]] = field(compare=False, repr=False)

    def completion_in_delta(self) -> float:
        """Completion time expressed in Δ units past the start."""
        return (self.completion_time - self.start_time) / self.delta

    def to_dict(self) -> dict[str, Any]:
        return {
            "leaders": list(self.leaders),
            "diam": self.diam,
            "start_time": self.start_time,
            "delta": self.delta,
            "publish_times": dict(self.publish_times),
            "phase_two_start": dict(self.phase_two_start),
            "deadline_ladder": {str(k): v for k, v in self.deadline_ladder.items()},
            "completion_time": self.completion_time,
            "completion_in_delta": self.completion_in_delta(),
            "phase_two_bound": self.phase_two_bound,
            "escrow_count": self.escrow_count,
            "unlock_calls": self.unlock_calls,
            "milestone_counts": dict(self.milestone_counts),
            "contract_storage_bytes": self.contract_storage_bytes,
            "deadline_feasible": self.deadline_feasible,
        }


def _replay(
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
    """Replay the conforming two-phase cascade on a FIFO event queue.

    ``latency`` is each chain's observation delay (one reaction plus
    its lag) and a hashkey with a path of ``ℓ`` arcs expires at
    ``expiry + ℓ·delta``.  Returns the publish time of every
    party, the Phase Two start of every leader, per arc the unlocks that
    land on it (in landing order, with the hashkey path each carries),
    and the first late send per ``(party, lock)`` with the expiry it
    missed.  A late send is recorded and the replay carries on, so an
    infeasible profile still gets every time as a best static estimate.

    Times, paths and same-tick order only; no contracts, signatures or
    ledger records.  When two routes deliver a secret at the same tick,
    the simulator keeps whichever observation its scheduler fires
    first, and that order recurses through the whole cascade back to
    the iteration order of ``_schedule_unlocks`` over entering arcs.
    Replaying with the scheduler's own rule reproduces those choices by
    construction: all protocol steps share the WAKE priority band, so
    events fire by ``(when, insertion order)``.  The queue keeps that
    rule with one FIFO bucket per tick and a heap over the distinct
    ticks only: a bucket fires in insertion order, and an event
    scheduled at the tick being fired joins the end of its bucket, as
    its insertion order puts it after everything already queued there.
    (``tests/replay_reference.py`` is the one-heap-entry-per-event
    replay this must equal.)  An event that would change nothing never
    changes the order of the others, so none is queued: deliveries the
    parties ignore (a head observing its own published contract, a tail
    observing its own unlock, claim observations, an unlock whose head
    already knows the secret or is on its path) and a second unlock of
    a lock on an arc (the first one queued always fires first).
    """
    lead = set(leaders)
    lock_of = {leader: i for i, leader in enumerate(leaders)}
    #: tick -> the events due then, in insertion order; ``due`` heaps
    #: the ticks that have a bucket.
    buckets: dict[int, list[tuple[Any, tuple[Any, ...]]]] = {}
    due: list[int] = []

    def at(when: int, fn: Any, *args: Any) -> None:
        bucket = buckets.get(when)
        if bucket is None:
            bucket = buckets[when] = []
            heapq.heappush(due, when)
        bucket.append((fn, args))

    entering = {v: digraph.in_arcs(v) for v in digraph.vertices}
    leaving = {v: digraph.out_arcs(v) for v in digraph.vertices}
    seen: dict[Vertex, set[Arc]] = {v: set() for v in digraph.vertices}
    #: lock -> hashkey path, in learn order (dict preserves insertion).
    known: dict[Vertex, dict[int, tuple[Vertex, ...]]] = {
        v: {} for v in digraph.vertices
    }
    #: arc -> the locks whose unlock is queued or sent on it.
    unlocking: dict[Arc, set[int]] = {arc: set() for arc in digraph.arcs}
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
        # The first unlock queued for a lock on an arc is the one that
        # lands: a later one fires later (or after it at the same tick)
        # and would find the lock open, so it is never queued.
        if arc not in seen[v] or i in unlocking[arc]:
            return
        unlocking[arc].add(i)
        at(now + action, send_unlock, v, arc, i)

    def send_unlock(v: Vertex, arc: Arc, i: int, now: int) -> None:
        path = known[v][i]
        expires = expiry + (len(path) - 1) * delta
        if now >= expires:
            # A rational party does not submit an expired hashkey: the
            # simulator refunds here instead of reaching all-Deal.
            late.setdefault((v, i), (now, expires))
        schedule[arc].append((i, path, now))
        w = arc[0]
        # The head ignores an unlock whose secret it already knows or
        # whose path it is on; both stay true until the delivery.
        if i not in known[w] and w not in path:
            at(now + latency[arc], observe_unlock, w, i, path)

    def observe_unlock(w: Vertex, i: int, path: tuple[Vertex, ...], now: int) -> None:
        if i in known[w]:
            return
        known[w][i] = (w, *path)
        for arc in entering[w]:
            schedule_unlock(w, arc, i, now)

    for v in digraph.vertices:
        if v in lead:
            at(start, publish_outgoing, v)
    while due:
        now = heapq.heappop(due)
        # The bucket may grow while it fires (an event due now); list
        # iteration reaches the appended events in order.
        for fn, args in buckets[now]:
            fn(*args, now)
        del buckets[now]

    if any(len(schedule[arc]) != len(leaders) for arc in digraph.arcs):
        raise AnalysisError(
            "analytic replay: conforming cascade quiesced with locked "
            "hashlocks remaining"
        )
    return publish, phase_two, schedule, late


def predict(scenario: Scenario) -> tuple[Prediction, tuple[Diagnostic, ...]]:
    """Compute the closed-form run profile of a conforming scenario.

    Precondition: the scenario passed :func:`~repro.analysis.structure
    .check_scenario` with no errors (strongly connected digraph,
    non-empty feedback vertex set of leaders).  The returned diagnostics
    are advisory — one deadline-feasibility warning per party and lock
    whose replayed unlock is sent at or past its hashkey's expiry, in
    which case the profile is the best static estimate and
    ``deadline_feasible`` is false.
    """
    digraph = scenario.digraph()
    leaders = resolve_leaders(scenario, digraph)
    if not leaders:
        raise AnalysisError(
            "predict() needs a non-empty leader set; run check_scenario() "
            "first and only predict structurally conforming scenarios"
        )
    delta = scenario.delta
    reaction = ticks(delta, scenario.reaction_fraction)
    action = ticks(delta, scenario.action_fraction)
    start = resolve_start(scenario)
    diam = resolve_diam(scenario, digraph)
    slack = scenario.timeout_slack
    bound = start + (2 * diam + slack) * delta
    ladder = {
        length: start + (diam + length + slack) * delta
        for length in range(diam + 1)
    }

    # Contract and unlock observations on an arc's chain land one
    # reaction plus that chain's extra lag later.
    latency = {
        arc: reaction + scenario.chain_delays.get(f"{arc[0]}->{arc[1]}", 0)
        for arc in digraph.arcs
    }
    publish, phase_two_start, schedule, late = _replay(
        digraph, leaders, latency, action, start, delta, ladder[0]
    )
    # Each arc is claimed one action after its last unlock lands.
    completion = max(unlocks[-1][2] for unlocks in schedule.values()) + action

    diagnostics = tuple(
        warning(
            "predict/deadline-at-risk",
            "/chain_delays",
            f"party {v!r} is predicted to unlock secret of {leaders[i]!r} "
            f"at t={when}, at or past its hashkey expiry {expires} (§4.1): "
            "all-Deal is not certified under these chain delays",
        )
        for (v, i), (when, expires) in late.items()
    )

    arc_count = digraph.arc_count()
    base = stored_fields_size(digraph, leaders)
    # Endpoint and asset names count as UTF-8 bytes, as the contract does.
    storage = sum(
        base + len(u.encode()) + len(v.encode()) + len(f"asset@{u}->{v}".encode())
        + len(leaders)
        for (u, v) in digraph.arcs
    )
    milestone_counts = {
        PHASE1_START: 1,
        CONTRACT_ESCROWED: arc_count,
        SECRET_RELEASED: arc_count * len(leaders),
        PHASE2_COMPLETE: 1,
        SETTLED: 1,
    }
    prediction = Prediction(
        leaders=leaders,
        diam=diam,
        start_time=start,
        delta=delta,
        publish_times=publish,
        phase_two_start=phase_two_start,
        deadline_ladder=ladder,
        completion_time=completion,
        phase_two_bound=bound,
        escrow_count=arc_count,
        unlock_calls=arc_count * len(leaders),
        milestone_counts=milestone_counts,
        contract_storage_bytes=storage,
        deadline_feasible=not late,
        unlock_schedule=schedule,
    )
    return prediction, diagnostics
