"""Seeded workload generation: topology families × adversary mixes.

A *topology family* is a named, parameterized, deterministic generator
of swap digraphs (``cycle``, ``clique``, ``erdos-renyi``, ``star``,
``wheel``, ``multigraph-cycle``, and the non-strongly-connected
``two-coalition`` / ``chain`` impossibility families).  An *adversary
mix* turns one topology into scenario overrides — fault plans, deviating
strategies, or engine params — again deterministically from a seed
(``all-conforming``, ``phase-crash``, ``last-moment``, ``free-ride``,
``timeout-attack``, ``colluding-crash``).

A *timing profile* names a :mod:`repro.sim.timing` spec (``uniform``,
``jittered``, ``stragglers``, ...) so the paper's Δ assumption can be
swept like any other axis.

A :class:`Workload` crosses one family's parameter grid with a set of
mixes, engines, and timing profiles; :func:`build_sweep` expands it (or
several) into a
:class:`repro.api.Sweep` whose scenarios are fully determined by the
workload — the same workload always produces the same
:func:`repro.api.sweep.run_key` for every run, which is what makes the
:mod:`repro.lab.store` cache hit across processes and days.

Registration lives in :mod:`repro.lab.registry`; this module holds the
shapes and the expansion logic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from random import Random
from typing import Any, Callable, Iterable, Mapping

from repro.api.scenario import Scenario
from repro.api.sweep import Sweep, derive_seed
from repro.digraph.digraph import Digraph, Vertex
from repro.digraph.multigraph import MultiDigraph
from repro.errors import LabError
from repro.sim.faults import CrashPoint, FaultPlan

Topology = Digraph | MultiDigraph

#: Scenario overrides one adversary mix produces for one topology.
Overrides = dict[str, Any]


@dataclass(frozen=True)
class TopologyFamily:
    """One named generator of swap topologies.

    ``build(params, rng)`` must be deterministic in ``(params, rng
    state)``; families that take no randomness simply ignore ``rng``.
    ``defaults`` double as documentation of the accepted params.
    """

    name: str
    description: str
    build: Callable[[dict[str, Any], Random], Topology]
    defaults: Mapping[str, Any] = field(default_factory=dict)
    strongly_connected: bool = True
    """Whether generated topologies satisfy Theorem 3.5's precondition.
    ``False`` marks the impossibility families: protocol engines refuse
    them, reproducing the free-riding result constructively."""

    def generate(self, params: Mapping[str, Any] | None = None, seed: int = 0) -> Topology:
        """Build one topology; same ``(params, seed)`` → equal topology."""
        merged = dict(self.defaults)
        unknown = set(params or ()) - set(merged)
        if unknown:
            raise LabError(
                f"family {self.name!r} does not take params {sorted(unknown)}; "
                f"accepted: {sorted(merged)}"
            )
        merged.update(params or {})
        try:
            return self.build(merged, Random(seed))
        except (TypeError, ValueError) as error:
            # e.g. ``--grid n=abc``: int("abc") inside the build lambda.
            raise LabError(
                f"family {self.name!r} cannot build params {merged}: {error}"
            ) from error


@dataclass(frozen=True)
class AdversaryMix:
    """One named adversary environment applied on top of a topology.

    ``apply(topology, rng)`` returns ``Scenario`` override kwargs —
    any of ``faults``, ``strategies``, ``params`` — choosing victims
    and attack points deterministically from ``rng``.
    """

    name: str
    description: str
    apply: Callable[[Topology, Random], Overrides]


@dataclass(frozen=True)
class TimingProfile:
    """One named timing model registered for lab workloads.

    ``spec`` is the value handed to :attr:`repro.api.Scenario.timing`
    (``None`` for the back-compat uniform default, otherwise a
    ``{"kind": ..., **params}`` dict — see :mod:`repro.sim.timing`).
    Registering a profile makes it crossable with families and mixes
    via :attr:`Workload.timings` and ``lab run --timing``.
    """

    name: str
    description: str
    spec: dict[str, Any] | None = None


def _sorted_parties(topology: Topology) -> list[Vertex]:
    return sorted(topology.vertices)


def no_adversary(topology: Topology, rng: Random) -> Overrides:
    """Everyone conforms; the Theorem 4.2 all-Deal regime."""
    return {}


def phase_crash(topology: Topology, rng: Random) -> Overrides:
    """One party halts at a protocol milestone (the §1 failure model)."""
    victim = rng.choice(_sorted_parties(topology))
    point = rng.choice(sorted(CrashPoint, key=lambda p: p.value))
    return {"faults": FaultPlan().crash(victim, at_point=point)}


def last_moment(topology: Topology, rng: Random) -> Overrides:
    """One party plays the last-moment unlock (the §1 timeout attack)."""
    attacker = rng.choice(_sorted_parties(topology))
    return {"strategies": {attacker: "last-moment-unlock"}}


def free_ride(topology: Topology, rng: Random) -> Overrides:
    """A coalition claims incoming assets but never honours its own arcs.

    On non-strongly-connected topologies the coalition is a *source*
    strongly connected component of the condensation — the side nothing
    outside can pay back, exactly Lemma 3.4's profitable deviation.  On
    strongly connected topologies no such side exists, so a random third
    of the parties plays greedy instead, and the same greed only hurts
    them (Theorem 4.9 keeps conforming parties whole).
    """
    from repro.digraph.paths import strongly_connected_components

    digraph = (
        topology.underlying_simple()
        if isinstance(topology, MultiDigraph)
        else topology
    )
    components = strongly_connected_components(digraph)
    sources = [
        component
        for component in components
        if not any(
            u not in component and v in component for u, v in digraph.arcs
        )
    ]
    if len(components) > 1 and sources:
        coalition = min(sources, key=lambda c: tuple(sorted(c)))
    else:
        coalition = rng.sample(
            _sorted_parties(topology), max(1, len(topology.vertices) // 3)
        )
    return {"strategies": {v: "greedy-claim-only" for v in sorted(coalition)}}


def timeout_attack(topology: Topology, rng: Random) -> Overrides:
    """The ``naive-timelock`` baseline's worst case: a designated
    attacker reveals at the shared deadline (params-based, so it targets
    the baseline engine rather than strategy-accepting ones)."""
    return {"params": {"attacker": rng.choice(_sorted_parties(topology))}}


def colluding_crash(topology: Topology, rng: Random) -> Overrides:
    """A coalition mixing phase-boundary crashes with deviations.

    One coalition member halts at a seeded protocol milestone while the
    rest split between the last-moment unlock and pure free-riding —
    the strongest combined deviation a single mix can stage.  Theorem
    4.9's claim is exactly that no such coalition (crash + arbitrary
    deviation) can push a *conforming* party Underwater; this mix is
    the lab's standing probe of that claim.  Coalition size is roughly
    a third of the parties, never fewer than two (a crash alone is
    ``phase-crash``).
    """
    parties = _sorted_parties(topology)
    size = min(len(parties), max(2, len(parties) // 3 + 1))
    coalition = rng.sample(parties, size)
    crasher = coalition[0]
    point = rng.choice(
        [CrashPoint.AFTER_PHASE_ONE_PUBLISH, CrashPoint.BEFORE_PHASE_TWO]
    )
    strategies = {
        member: "last-moment-unlock" if i % 2 == 0 else "greedy-claim-only"
        for i, member in enumerate(coalition[1:])
    }
    return {
        "faults": FaultPlan().crash(crasher, at_point=point),
        "strategies": strategies,
    }


@dataclass(frozen=True)
class Workload:
    """One family's parameter grid crossed with mixes and engines.

    ``grid`` maps family params to a value or a list of values; listed
    values are swept (cartesian product in sorted-key order).  Every
    scenario seed, topology seed, and adversary choice derives from
    ``seed`` via :func:`repro.api.sweep.derive_seed`, so a workload is a
    pure value: expanding it twice yields scenario-for-scenario
    identical sweeps.
    """

    family: str
    grid: Mapping[str, Any] = field(default_factory=dict)
    mixes: tuple[str, ...] = ("all-conforming",)
    engines: tuple[str, ...] = ("herlihy",)
    seed: int = 7
    name: str = ""
    scenario_kwargs: Mapping[str, Any] = field(default_factory=dict)
    """Extra :class:`Scenario` fields applied to every run (delta,
    timeout_slack, use_broadcast, ...)."""
    timings: tuple[str, ...] = ("uniform",)
    """Registered timing-profile names crossed into the grid (see
    ``lab timings``).  The default single ``uniform`` entry keeps the
    expansion — and every run key — identical to pre-timing workloads.
    Appended after the pre-1.4 fields so positional construction keeps
    its old meaning."""

    def label(self) -> str:
        return self.name or self.family


def expand_grid(grid: Mapping[str, Any]) -> list[dict[str, Any]]:
    """All param combinations, lists swept in sorted-key order.

    ``{"n": [3, 5], "p": 0.2}`` → ``[{"n": 3, "p": 0.2},
    {"n": 5, "p": 0.2}]``.  A non-list value is fixed across the grid;
    an empty grid yields the single empty combination (family defaults).
    """
    keys = sorted(grid)
    axes = [
        list(grid[k]) if isinstance(grid[k], (list, tuple)) else [grid[k]]
        for k in keys
    ]
    return [dict(zip(keys, combo)) for combo in itertools.product(*axes)]


def _params_label(params: Mapping[str, Any]) -> str:
    return ",".join(f"{k}={params[k]}" for k in sorted(params)) or "defaults"


def build_sweep(
    workloads: Workload | Iterable[Workload],
    name: str = "lab",
    base_seed: int | None = None,
) -> Sweep:
    """Expand workload(s) into one deterministic :class:`Sweep`.

    Expansion order: workload → grid combination → mix → engine.  Each
    scenario's seed derives from its workload's seed plus its position,
    so inserting a new workload at the end never perturbs the scenarios
    (or store keys) of the ones before it.  ``base_seed``, when given,
    replaces every workload's seed — this is how ``lab run --seed``
    re-rolls a whole preset.
    """
    from repro.lab.registry import get_family, get_mix, get_timing

    if isinstance(workloads, Workload):
        workloads = [workloads]
    workloads = list(workloads)
    if not workloads:
        raise LabError("build_sweep needs at least one workload")
    if base_seed is not None:
        workloads = [replace(w, seed=base_seed) for w in workloads]
    sweep = Sweep(name, workloads[0].seed)
    for workload in workloads:
        family = get_family(workload.family)
        timings = [get_timing(t) for t in (workload.timings or ("uniform",))]
        for combo_index, params in enumerate(expand_grid(workload.grid)):
            topology = family.generate(
                params,
                seed=derive_seed(workload.seed, f"topology:{family.name}", combo_index),
            )
            for mix_name in workload.mixes:
                mix = get_mix(mix_name)
                for engine in workload.engines:
                    # Fresh-seeded per call, so the same overrides come
                    # out for every timing variant of this (mix, engine).
                    overrides = mix.apply(
                        topology,
                        Random(
                            derive_seed(
                                workload.seed,
                                f"mix:{mix_name}:{engine}",
                                combo_index,
                            )
                        ),
                    )
                    for timing in timings:
                        index = len(sweep)
                        # The timing tag rides on the engine segment so
                        # parse_lab_name's right-anchored family/params/
                        # mix fields stay where they always were.
                        engine_label = (
                            engine
                            if timing.spec is None
                            else f"{engine}@{timing.name}"
                        )
                        scenario = Scenario(
                            topology=topology,
                            name=(
                                f"lab:{workload.label()}:{_params_label(params)}"
                                f":{mix_name}:{engine_label}#{index}"
                            ),
                            seed=derive_seed(workload.seed, engine, index),
                            **_merge_timing(
                                _merge_kwargs(
                                    workload.scenario_kwargs, overrides, mix_name
                                ),
                                timing,
                            ),
                        )
                        sweep.add(engine, scenario)
    return sweep


def _merge_timing(
    kwargs: dict[str, Any], timing: "TimingProfile"
) -> dict[str, Any]:
    """Apply one timing profile's spec to merged scenario kwargs.

    A workload may pin ``timing`` through ``scenario_kwargs`` *or*
    sweep it through :attr:`Workload.timings` — both at once is a
    contradiction the caller should hear about.
    """
    if timing.spec is None:
        return kwargs  # uniform: leave the field (and the run key) alone
    if "timing" in kwargs:
        raise LabError(
            f"timing profile {timing.name!r} and the workload's "
            "scenario_kwargs both set 'timing'; drop one of them"
        )
    return {**kwargs, "timing": timing.spec}


def _merge_kwargs(
    base: Mapping[str, Any], overrides: Overrides, mix_name: str
) -> dict[str, Any]:
    """Workload-level scenario kwargs merged with one mix's overrides.

    Dict-valued fields (``params``, ``strategies``) merge key-wise with
    the mix winning ties; any other shared field is a contradiction the
    caller should hear about rather than a silent pick.
    """
    merged = dict(base)
    for key, value in overrides.items():
        if key not in merged:
            merged[key] = value
        elif isinstance(value, dict) and isinstance(merged[key], dict):
            merged[key] = {**merged[key], **value}
        else:
            raise LabError(
                f"mix {mix_name!r} and the workload's scenario_kwargs both "
                f"set {key!r}; drop one of them"
            )
    return merged


# ---------------------------------------------------------------------------
# impossibility evidence
# ---------------------------------------------------------------------------


def impossibility_evidence(topology: Topology):
    """Lemma 3.4's profitable free-ride deviation, constructed.

    For a non-strongly-connected topology returns the
    :class:`repro.analysis.attacks.FreeRideDemo` whose
    ``coalition_gain > 0`` certifies that no protocol can protect the
    cut-off side; raises :class:`~repro.errors.DigraphError` when the
    topology is strongly connected (no such pair of vertices exists).
    """
    from repro.analysis.attacks import free_ride_partition

    digraph = (
        topology.underlying_simple()
        if isinstance(topology, MultiDigraph)
        else topology
    )
    return free_ride_partition(digraph)
