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
assertion allows 5% on the summed min-of-rounds times (min is the
stable estimator for "how fast can this go"; means absorb scheduler
noise).  Each round runs the seed path and then the harness path, so
drift across the rounds lands on both sides.
"""

from __future__ import annotations

import time

from _tables import emit_bench_json, emit_table

from repro.api import Scenario, get_engine
from repro.chain.network import BROADCAST_CHAIN_ID, ChainNetwork
from repro.core.party import SwapParty
from repro.core.protocol import SwapSimulation, collect_result
from repro.core.spec import SwapSpec, compute_diameter_for_spec
from repro.crypto.hashing import hash_secret, sha256
from repro.crypto.keys import KeyDirectory
from repro.crypto.signatures import get_scheme
from repro.digraph.digraph import Digraph
from repro.digraph.feedback import feedback_vertex_set
from repro.digraph.generators import cycle_digraph
from repro.sim.process import ReactionProfile
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Trace

CYCLE_GRID = (3, 4, 6, 8)
ROUNDS = 9
OVERHEAD_BUDGET = 1.05


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
        diam=compute_diameter_for_spec(digraph, scenario.exact_limit),
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

    def on_record(chain, record, now):
        for party in relevant.get(chain.chain_id, ()):
            if party.is_halted:
                continue
            party.wake_after(
                party.profile.reaction_delay,
                lambda p=party, c=chain, r=record, t=now: p.on_chain_record(c, r, t),
            )

    network.subscribe_all(on_record)
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


def _min_times(digraph: Digraph, scenario: Scenario) -> dict:
    """Min-of-rounds wall time and last result for each path.

    Every round times the seed path and then the harness path, so
    cache, frequency and allocator drift over the rounds hits both
    alike instead of landing on whichever path ran second.
    """
    best = {fn: float("inf") for fn in (_seed_style_run, _harness_run)}
    results = {}
    for _ in range(ROUNDS):
        for fn in best:
            start = time.perf_counter()
            results[fn] = fn(digraph, scenario)
            best[fn] = min(best[fn], time.perf_counter() - start)
    return {fn: (best[fn], results[fn]) for fn in best}


def test_harness_overhead_within_budget():
    rows = []
    per_n = {}
    seed_total = harness_total = 0.0
    for n in CYCLE_GRID:
        digraph = cycle_digraph(n)
        timed = _min_times(digraph, Scenario(digraph))
        seed_t, seed_result = timed[_seed_style_run]
        harness_t, harness_result = timed[_harness_run]
        # Identical simulations first — otherwise the timing is vacuous.
        assert harness_result.all_deal() and seed_result.all_deal()
        assert harness_result.events_fired == seed_result.events_fired
        assert harness_result.triggered == seed_result.triggered
        assert harness_result.stored_bytes == seed_result.stored_bytes
        seed_total += seed_t
        harness_total += harness_t
        per_n[n] = {"seed_ms": seed_t * 1000, "harness_ms": harness_t * 1000}
        rows.append(
            [
                n,
                f"{seed_t * 1000:.2f}",
                f"{harness_t * 1000:.2f}",
                f"{(harness_t / seed_t - 1) * 100:+.1f}%",
            ]
        )

    ratio = harness_total / seed_total
    rows.append(["total", f"{seed_total * 1000:.2f}",
                 f"{harness_total * 1000:.2f}", f"{(ratio - 1) * 100:+.1f}%"])
    emit_table(
        "E25",
        "Harness overhead: seed-style inline assembly vs SimulationHarness "
        f"(E01 cycle grid, min of {ROUNDS} alternating rounds)",
        ["cycle n", "seed ms", "harness ms", "overhead"],
        rows,
        notes=(
            "Both columns run byte-identical simulations; the delta is the "
            "price of the shared harness + timing-model indirection.  The "
            f"budget is {OVERHEAD_BUDGET:.0%} of seed time."
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
            "budget": OVERHEAD_BUDGET,
            "rounds": ROUNDS,
            "per_n": per_n,
        },
    )
    assert ratio <= OVERHEAD_BUDGET, (
        f"harness path is {(ratio - 1) * 100:.1f}% slower than seed-style "
        f"assembly (budget {(OVERHEAD_BUDGET - 1) * 100:.0f}%)"
    )
