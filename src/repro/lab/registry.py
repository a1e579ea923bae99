"""The workload registry: topology families, adversary mixes, presets.

Everything is registered by name so workloads stay serializable and the
``python -m repro lab`` CLI can enumerate what exists.  Third-party code
extends the lab the same way the built-ins register themselves:

    from repro.lab import TopologyFamily, register_family

    register_family(TopologyFamily(
        "my-topology", "what it stresses", build_fn, {"n": 5},
    ))

Built-in families (``list_families``):

========================= ==================================================
``cycle``                 single directed cycle (§1 generalised, 1 leader)
``clique``                bidirectional complete digraph (max-leader, Fig. 6-8)
``erdos-renyi``           random Hamiltonian cycle + p-chords (strongly
                          connected Erdős–Rényi-style digraph)
``star``                  hub ⇄ spokes broker (single leader)
``wheel``                 star + rim cycle (two-leader minimum FVS)
``petal``                 k cycles through one hub (single leader, high diam)
``multigraph-cycle``      §5 cycle with parallel keyed arcs
``power-law``             heavy-tailed in/out degrees (Zipf-weighted hubs)
``two-coalition``         NOT strongly connected: Lemma 3.4 free-ride family
``chain``                 NOT strongly connected: directed path
========================= ==================================================

Built-in adversary mixes (``list_mixes``): ``all-conforming``,
``phase-crash``, ``last-moment``, ``free-ride``, ``timeout-attack``,
``colluding-crash`` (phase-boundary crash + deviating strategies in one
coalition).

Built-in timing profiles (``list_timings``): ``uniform``, ``jittered``,
``stragglers``, ``straggler-pair`` — named :mod:`repro.sim.timing`
specs crossable with families and mixes via :attr:`Workload.timings`
and ``lab run --timing``.

Presets (``list_presets``) bundle workloads for the CLI: ``smoke``,
``topologies``, ``adversaries``, ``impossibility``, ``scale``, and
``timings`` (timing × family × mix cross).
"""

from __future__ import annotations

from random import Random
from typing import Any

from repro.digraph.generators import (
    chain_digraph,
    complete_digraph,
    cycle_digraph,
    petal_digraph,
    powerlaw_strongly_connected,
    random_strongly_connected,
    star_digraph,
    two_coalition_digraph,
    wheel_digraph,
)
from repro.digraph.multigraph import MultiDigraph
from repro.errors import LabError, UnknownWorkloadError
from repro.lab.workloads import (
    AdversaryMix,
    TimingProfile,
    TopologyFamily,
    Workload,
    colluding_crash,
    free_ride,
    last_moment,
    no_adversary,
    phase_crash,
    timeout_attack,
)

_FAMILIES: dict[str, TopologyFamily] = {}
_MIXES: dict[str, AdversaryMix] = {}
_TIMINGS: dict[str, TimingProfile] = {}
_PRESETS: dict[str, tuple[Workload, ...]] = {}


def register_family(family: TopologyFamily) -> TopologyFamily:
    if family.name in _FAMILIES:
        raise LabError(f"topology family {family.name!r} is already registered")
    _FAMILIES[family.name] = family
    return family


def get_family(name: str) -> TopologyFamily:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise UnknownWorkloadError("topology family", name, tuple(_FAMILIES)) from None


def list_families() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def register_mix(mix: AdversaryMix) -> AdversaryMix:
    if mix.name in _MIXES:
        raise LabError(f"adversary mix {mix.name!r} is already registered")
    _MIXES[mix.name] = mix
    return mix


def get_mix(name: str) -> AdversaryMix:
    try:
        return _MIXES[name]
    except KeyError:
        raise UnknownWorkloadError("adversary mix", name, tuple(_MIXES)) from None


def list_mixes() -> tuple[str, ...]:
    return tuple(sorted(_MIXES))


def register_timing(profile: TimingProfile) -> TimingProfile:
    if profile.name in _TIMINGS:
        raise LabError(f"timing profile {profile.name!r} is already registered")
    if profile.spec is not None:
        # Fail at registration, not mid-sweep: the spec must resolve.
        from repro.sim.timing import resolve_timing

        resolve_timing(profile.spec)
    _TIMINGS[profile.name] = profile
    return profile


def get_timing(name: str) -> TimingProfile:
    try:
        return _TIMINGS[name]
    except KeyError:
        raise UnknownWorkloadError("timing profile", name, tuple(_TIMINGS)) from None


def list_timings() -> tuple[str, ...]:
    return tuple(sorted(_TIMINGS))


def register_preset(name: str, *workloads: Workload) -> None:
    if name in _PRESETS:
        raise LabError(f"preset {name!r} is already registered")
    _PRESETS[name] = tuple(workloads)


def get_preset(name: str) -> tuple[Workload, ...]:
    try:
        return _PRESETS[name]
    except KeyError:
        raise UnknownWorkloadError("preset", name, tuple(_PRESETS)) from None


def list_presets() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


# ---------------------------------------------------------------------------
# built-in topology families
# ---------------------------------------------------------------------------


def _build_multigraph_cycle(params: dict[str, Any], rng: Random) -> MultiDigraph:
    base = cycle_digraph(int(params["n"]))
    copies = int(params["copies"])
    if copies < 1:
        raise LabError("multigraph-cycle needs copies >= 1")
    arcs = [(u, v, k) for (u, v) in base.arcs for k in range(copies)]
    return MultiDigraph(base.vertices, arcs)


for _family in (
    TopologyFamily(
        "cycle",
        "single directed cycle: the §1 swap generalised to n parties",
        lambda p, rng: cycle_digraph(int(p["n"])),
        {"n": 3},
    ),
    TopologyFamily(
        "clique",
        "bidirectional complete digraph: every party pays every other",
        lambda p, rng: complete_digraph(int(p["n"])),
        {"n": 3},
    ),
    TopologyFamily(
        "erdos-renyi",
        "random strongly connected digraph: Hamiltonian cycle + p-chords",
        lambda p, rng: random_strongly_connected(int(p["n"]), float(p["p"]), rng),
        {"n": 6, "p": 0.25},
    ),
    TopologyFamily(
        "star",
        "hub ⇄ spokes broker topology (single leader)",
        lambda p, rng: star_digraph(int(p["points"])),
        {"points": 3},
    ),
    TopologyFamily(
        "wheel",
        "star plus a rim cycle (minimum FVS of two)",
        lambda p, rng: wheel_digraph(int(p["rim"])),
        {"rim": 4},
    ),
    TopologyFamily(
        "petal",
        "k cycles sharing one hub (single leader, diameter stress)",
        lambda p, rng: petal_digraph(int(p["petals"]), int(p["petal_size"])),
        {"petals": 3, "petal_size": 3},
    ),
    TopologyFamily(
        "multigraph-cycle",
        "§5 multigraph: a cycle with `copies` parallel keyed arcs per pair",
        _build_multigraph_cycle,
        {"n": 3, "copies": 2},
    ),
    TopologyFamily(
        "power-law",
        "heavy-tailed in/out degrees: Hamiltonian cycle + Zipf-weighted "
        "extra arcs (hub-dominated, stresses FVS and longest paths)",
        lambda p, rng: powerlaw_strongly_connected(
            int(p["n"]), float(p["exponent"]), int(p["extra"]), rng
        ),
        {"n": 8, "exponent": 2.2, "extra": 16},
    ),
    TopologyFamily(
        "two-coalition",
        "NOT strongly connected: two cycles, one-way bridges (Lemma 3.4)",
        lambda p, rng: two_coalition_digraph(
            int(p["left"]), int(p["right"]), int(p["bridges"])
        ),
        {"left": 2, "right": 2, "bridges": 1},
        strongly_connected=False,
    ),
    TopologyFamily(
        "chain",
        "NOT strongly connected: a directed path (impossibility side)",
        lambda p, rng: chain_digraph(int(p["n"])),
        {"n": 3},
        strongly_connected=False,
    ),
):
    register_family(_family)


# ---------------------------------------------------------------------------
# built-in adversary mixes
# ---------------------------------------------------------------------------

for _mix in (
    AdversaryMix(
        "all-conforming",
        "everyone follows the protocol (Theorem 4.2 all-Deal regime)",
        no_adversary,
    ),
    AdversaryMix(
        "phase-crash",
        "one party halts at a protocol milestone (§1 failure model)",
        phase_crash,
    ),
    AdversaryMix(
        "last-moment",
        "one party plays the last-moment unlock (§1 timeout attack)",
        last_moment,
    ),
    AdversaryMix(
        "free-ride",
        "a coalition claims incoming assets, honours nothing (Lemma 3.4)",
        free_ride,
    ),
    AdversaryMix(
        "timeout-attack",
        "naive-timelock baseline's shared-deadline reveal (params-based)",
        timeout_attack,
    ),
    AdversaryMix(
        "colluding-crash",
        "coalition: one phase-boundary crash + last-moment/free-ride "
        "strategies in concert (the combined Thm 4.9 stressor)",
        colluding_crash,
    ),
):
    register_mix(_mix)


# ---------------------------------------------------------------------------
# built-in timing profiles
# ---------------------------------------------------------------------------

for _timing in (
    TimingProfile(
        "uniform",
        "every party shares the configured conforming profile (default)",
        None,
    ),
    TimingProfile(
        "jittered",
        "per-party seeded delays within the conforming Δ budget "
        "(round trip ≤ Δ; probes the strict-deadline boundary)",
        {"kind": "jittered"},
    ),
    TimingProfile(
        "stragglers",
        "one seeded party violates reaction+action ≤ Δ (3Δ round trip; "
        "the regime Theorem 4.9 does not cover)",
        {"kind": "stragglers"},
    ),
    TimingProfile(
        "straggler-pair",
        "two seeded parties violate the Δ assumption together",
        {"kind": "stragglers", "count": 2},
    ),
    TimingProfile(
        "adaptive-stragglers",
        "one seeded party conforms until `secret-released`, then spends "
        "the whole violation budget at once (milestone intervention; "
        "strictly nastier than static at moderate budgets)",
        {"kind": "adaptive-stragglers"},
    ),
    TimingProfile(
        "adaptive-stragglers-tight",
        "the adaptive straggler at the violation=2 boundary budget, "
        "where static stragglers still mostly complete all-Deal",
        {"kind": "adaptive-stragglers", "violation": 2.0},
    ),
    TimingProfile(
        "stragglers-tight",
        "the static straggler at the violation=2 boundary budget "
        "(head-to-head partner of adaptive-stragglers-tight)",
        {"kind": "stragglers", "violation": 2.0},
    ),
):
    register_timing(_timing)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

#: Mixes every strategy-accepting engine (herlihy, multiswap) can honour.
_STRATEGY_MIXES = ("all-conforming", "phase-crash", "last-moment", "free-ride")

register_preset(
    "smoke",
    Workload("cycle", {"n": [3, 4]}, engines=(
        "herlihy", "single-leader", "multiswap",
        "naive-timelock", "sequential-trust", "2pc",
    )),
)

register_preset(
    "topologies",
    Workload("cycle", {"n": [3, 5, 8]}),
    Workload("clique", {"n": [3, 4]}),
    Workload("erdos-renyi", {"n": [6, 8], "p": 0.2}),
    Workload("star", {"points": [3, 5]}),
    Workload("wheel", {"rim": [4, 6]}),
    Workload("petal", {"petals": [2, 4]}),
    Workload("multigraph-cycle", {"n": 3, "copies": [2, 3]}, engines=("multiswap",)),
    # Appended after the originals so their run keys never shift.
    Workload("power-law", {"n": [8, 12]}, scenario_kwargs={"exact_limit": 10}),
)

register_preset(
    "adversaries",
    Workload("cycle", {"n": [3, 5]}, mixes=_STRATEGY_MIXES),
    Workload("clique", {"n": 3}, mixes=_STRATEGY_MIXES),
    Workload("wheel", {"rim": 4}, mixes=_STRATEGY_MIXES),
    Workload("cycle", {"n": 3}, mixes=("timeout-attack",), engines=("naive-timelock",)),
    # Appended after the originals so their run keys never shift.
    Workload("cycle", {"n": [4, 6]}, mixes=("colluding-crash",)),
    Workload("power-law", {"n": 8}, mixes=("colluding-crash",),
             scenario_kwargs={"exact_limit": 10}),
)

register_preset(
    "timings",
    Workload("cycle", {"n": [3, 5]},
             mixes=("all-conforming", "phase-crash"),
             timings=("uniform", "jittered", "stragglers")),
    Workload("wheel", {"rim": 4},
             timings=("uniform", "jittered", "stragglers", "straggler-pair")),
    Workload("power-law", {"n": 8},
             timings=("uniform", "stragglers"),
             scenario_kwargs={"exact_limit": 10}),
    Workload("cycle", {"n": 4}, engines=("single-leader", "2pc"),
             timings=("uniform", "jittered", "stragglers")),
    # Appended after the originals so their run keys never shift: the
    # adaptive-vs-static head-to-head at the same violation budget,
    # over the topology where the gap is starkest (clique, v=2).
    Workload("clique", {"n": 4},
             timings=("stragglers-tight", "adaptive-stragglers-tight")),
    Workload("cycle", {"n": 5},
             timings=("stragglers-tight", "adaptive-stragglers-tight")),
)

register_preset(
    "impossibility",
    Workload("two-coalition", {"left": [2, 3], "right": 2},
             mixes=("all-conforming", "free-ride")),
    Workload("chain", {"n": [3, 5]}),
)

register_preset(
    "scale",
    Workload("erdos-renyi", {"n": [10, 15, 20], "p": 0.1},
             scenario_kwargs={"exact_limit": 12}),
    Workload("clique", {"n": [6, 8]}, scenario_kwargs={"exact_limit": 8}),
)
