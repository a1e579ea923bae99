"""E25 — the unified SimulationHarness must cost ≤5% over seed assembly.

PR 4 moved chain-network construction, party wiring, fault
installation, observation routing, and the run-to-quiescence loop out
of every runner into :class:`repro.sim.harness.SimulationHarness`, plus
a :class:`~repro.sim.timing.TimingModel` indirection for per-party
profiles.  This bench guards the refactor's price: it re-creates the
*seed* (pre-harness) assembly inline — the exact code the runners used
to carry — and times it against today's harness-backed
:class:`~repro.core.protocol.SwapSimulation` on the E01 cycle grid.

Both paths execute identical simulations (same keys, same events, same
results), so any wall-time difference is pure harness overhead.  The
assertion allows 5% on the median over :data:`ROUNDS` rounds of the
harness/seed ratio of one round's whole-grid times (E37's paired
estimator): each round runs both paths, in alternating order, so the
machine's drift between rounds cancels in each round's ratio.  The
summed best-of-rounds ratio the budget used to read, which compares
best times taken at different moments, is recorded beside it.

Profiled (cProfile, 300 passes over the grid), the harness path's
extra time was split between per-record dispatch (the harness's
``on_record`` added a chain-lag lookup and a ``partial`` per watcher)
and assembly (the timing model's per-party profiles, the party-builder
and collection layers), each a few per cent of a 1-5 ms run.  Since
queue entries are data, the harness queues each observation as
``watcher.on_chain_record`` and its arguments, with no ``partial`` and
no wake closure; the seed arm keeps its closures.
"""

from __future__ import annotations

import statistics
import time

from _tables import emit_bench_json, emit_table

from repro.api import Scenario, get_engine
from repro.chain.network import BROADCAST_CHAIN_ID, ChainNetwork
from repro.core.party import SwapParty
from repro.core.protocol import SwapSimulation, collect_result
from repro.core.spec import SwapSpec
from repro.crypto.hashing import hash_secret, sha256
from repro.crypto.keys import KeyDirectory
from repro.crypto.signatures import get_scheme
from repro.digraph.digraph import Digraph
from repro.digraph.feedback import feedback_vertex_set
from repro.digraph.generators import cycle_digraph
from repro.digraph.paths import diameter
from repro.sim.process import ReactionProfile
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Trace

CYCLE_GRID = (3, 4, 6, 8)
ROUNDS = 21
OVERHEAD_BUDGET = 1.05


class _SeedRouting:
    """The seed's observation routing.  The seed subscribed a closure;
    a chain now holds its subscriber weakly and takes a bound method,
    so the closure's body is this method, unchanged."""

    def __init__(self, relevant: dict) -> None:
        self.relevant = relevant

    def on_record(self, chain, record, now):
        for party in self.relevant.get(chain.chain_id, ()):
            if party.is_halted:
                continue
            party.wake_after(
                party.profile.reaction_delay,
                lambda p=party, c=chain, r=record, t=now: p.on_chain_record(c, r, t),
            )


def _seed_style_run(digraph: Digraph, scenario: Scenario):
    """The pre-harness SwapSimulation assembly, inlined verbatim.

    This is the duplicated code the refactor deleted from the runners,
    kept here (only) as the measurement baseline.  It reads the run's
    :class:`Scenario` field by field, as the seed read its config.
    """
    leaders = tuple(
        v
        for v in digraph.vertices
        if v in feedback_vertex_set(digraph, exact_limit=scenario.exact_limit)
    )
    scheme = get_scheme(scenario.scheme_name)
    directory = KeyDirectory()
    keypairs = {}
    for vertex in digraph.vertices:
        key_seed = sha256(f"keyseed:{scenario.seed}:{vertex}".encode())
        keypair = scheme.keygen(seed=key_seed).renamed(vertex)
        directory.register(keypair)
        keypairs[vertex] = keypair
    secrets = {
        leader: sha256(f"secret:{scenario.seed}:{leader}".encode())
        for leader in leaders
    }
    spec = SwapSpec(
        digraph=digraph,
        leaders=leaders,
        hashlocks=tuple(hash_secret(secrets[l]) for l in leaders),
        start_time=scenario.delta if scenario.start_time is None else scenario.start_time,
        delta=scenario.delta,
        diam=diameter(digraph, exact_limit=scenario.exact_limit),
        timeout_slack=scenario.timeout_slack,
        directory=directory,
        schemes={scheme.name: scheme},
        broadcast_unlock_enabled=scenario.use_broadcast,
    )
    network = ChainNetwork.for_digraph(digraph, include_broadcast=True)
    assets = network.register_arc_assets(digraph, now=0)
    scheduler = Scheduler()
    trace = Trace()
    profile = ReactionProfile.fractions(
        scenario.delta, scenario.reaction_fraction, scenario.action_fraction
    )
    parties = {
        vertex: SwapParty(
            keypair=keypairs[vertex],
            spec=spec,
            network=network,
            assets=assets,
            trace=trace,
            scheduler=scheduler,
            profile=profile,
            secret=secrets.get(vertex),
            use_broadcast=scenario.use_broadcast,
        )
        for vertex in digraph.vertices
    }
    relevant = {}
    for arc in digraph.arcs:
        chain = network.chain_for_arc(arc)
        head, tail = arc
        relevant.setdefault(chain.chain_id, []).extend(
            [parties[head], parties[tail]]
        )
    relevant[BROADCAST_CHAIN_ID] = list(parties.values())

    routing = _SeedRouting(relevant)
    network.subscribe_all(routing.on_record)
    for party in parties.values():
        scheduler.at(spec.start_time, lambda p=party: None if p.is_halted else p.start())
    events = scheduler.run()
    return collect_result(
        spec=spec,
        scenario=scenario,
        network=network,
        trace=trace,
        parties=parties,
        conforming=frozenset(digraph.vertices),
        events_fired=events,
    )


def _harness_run(digraph: Digraph, scenario: Scenario):
    return SwapSimulation(scenario).run()


def _paired_rounds(cases: list[tuple[Digraph, Scenario]]) -> tuple[dict, dict]:
    """Per-round wall times of each path over the whole grid, and each
    path's last results.

    Every round runs the grid on both paths, the order alternating
    round by round, so drift within the rounds lands on both sides.
    ``times[fn]`` holds one list per grid size (seconds per round).
    """
    paths = (_seed_style_run, _harness_run)
    times = {fn: [[] for _ in cases] for fn in paths}
    results = {fn: [None] * len(cases) for fn in paths}
    for index in range(ROUNDS):
        for fn in paths if index % 2 == 0 else paths[::-1]:
            for position, (digraph, scenario) in enumerate(cases):
                start = time.perf_counter()
                results[fn][position] = fn(digraph, scenario)
                times[fn][position].append(time.perf_counter() - start)
    return times, results


def paired_median(over: list[float], under: list[float]) -> float:
    """The median over rounds of ``over / under`` within a round (E37's
    estimator): the machine's drift between rounds cancels in each
    round's ratio."""
    return statistics.median(a / b for a, b in zip(over, under))


def test_harness_overhead_within_budget():
    cases = [(cycle_digraph(n), Scenario(cycle_digraph(n))) for n in CYCLE_GRID]
    times, results = _paired_rounds(cases)
    seed_times, harness_times = times[_seed_style_run], times[_harness_run]
    rows = []
    per_n = {}
    for position, n in enumerate(CYCLE_GRID):
        seed_result = results[_seed_style_run][position]
        harness_result = results[_harness_run][position]
        # Identical simulations first — otherwise the timing is vacuous.
        assert harness_result.all_deal() and seed_result.all_deal()
        assert harness_result.events_fired == seed_result.events_fired
        assert harness_result.triggered == seed_result.triggered
        assert harness_result.stored_bytes == seed_result.stored_bytes
        seed_t, harness_t = min(seed_times[position]), min(harness_times[position])
        paired = paired_median(harness_times[position], seed_times[position])
        per_n[n] = {
            "seed_ms": seed_t * 1000,
            "harness_ms": harness_t * 1000,
            "paired_ratio": paired,
        }
        rows.append(
            [
                n,
                f"{seed_t * 1000:.2f}",
                f"{harness_t * 1000:.2f}",
                f"{(harness_t / seed_t - 1) * 100:+.1f}%",
                f"{(paired - 1) * 100:+.1f}%",
            ]
        )

    seed_rounds = [sum(column) for column in zip(*seed_times)]
    harness_rounds = [sum(column) for column in zip(*harness_times)]
    seed_total = sum(min(column) for column in seed_times)
    harness_total = sum(min(column) for column in harness_times)
    best_of_ratio = harness_total / seed_total
    ratio = paired_median(harness_rounds, seed_rounds)
    rows.append(["total", f"{seed_total * 1000:.2f}", f"{harness_total * 1000:.2f}",
                 f"{(best_of_ratio - 1) * 100:+.1f}%", f"{(ratio - 1) * 100:+.1f}%"])
    emit_table(
        "E25",
        "Harness overhead: seed-style inline assembly vs SimulationHarness "
        f"(E01 cycle grid, {ROUNDS} alternating rounds)",
        ["cycle n", "seed ms (best)", "harness ms (best)", "best-of overhead",
         "paired overhead"],
        rows,
        notes=(
            "Both columns run byte-identical simulations; the delta is the "
            "price of the shared harness + timing-model indirection.  "
            "Paired: the median over rounds of the harness/seed ratio within "
            "a round (the total row: of the whole grid's round times), which "
            "the budget reads.  Best-of: the ratio of best round times (the "
            "total row: summed), recorded beside it.  The budget is "
            f"{OVERHEAD_BUDGET:.0%} of seed time."
        ),
    )

    reports = [
        get_engine("herlihy").run(
            Scenario(topology=cycle_digraph(n), name=f"e25:cycle:{n}")
        )
        for n in CYCLE_GRID
    ]
    emit_bench_json(
        "E25",
        reports,
        aggregates={
            "overhead_ratio": ratio,
            "estimator": "median of per-round paired ratios over the grid",
            "best_of_ratio": best_of_ratio,
            "budget": OVERHEAD_BUDGET,
            "rounds": ROUNDS,
            "per_n": per_n,
        },
    )
    assert ratio <= OVERHEAD_BUDGET, (
        f"harness path is {(ratio - 1) * 100:.1f}% slower than seed-style "
        f"assembly (median of per-round ratios; budget "
        f"{(OVERHEAD_BUDGET - 1) * 100:.0f}%)"
    )
