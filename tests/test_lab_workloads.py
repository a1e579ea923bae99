"""repro.lab workloads: registry surface, determinism, impossibility.

The acceptance bar: ≥ 5 topology families × ≥ 3 adversary mixes, every
one deterministic under a fixed seed (same seed + params → identical
scenario content hashes), including a non-strongly-connected family
that reproduces the free-riding impossibility.
"""

from __future__ import annotations

import pytest

from repro.api import run_key, run_sweep
from repro.digraph.digraph import Digraph
from repro.digraph.multigraph import MultiDigraph
from repro.digraph.paths import is_strongly_connected
from repro.errors import LabError, UnknownWorkloadError
from repro.lab import (
    SqliteStore,
    Workload,
    build_sweep,
    expand_grid,
    get_family,
    get_mix,
    get_preset,
    impossibility_evidence,
    list_families,
    list_mixes,
    list_presets,
)
from repro.sim.faults import FaultPlan


class TestRegistry:
    def test_inventory_meets_acceptance_floor(self):
        assert len(list_families()) >= 5
        assert len(list_mixes()) >= 3
        non_sc = [n for n in list_families() if not get_family(n).strongly_connected]
        assert non_sc, "need at least one impossibility family"

    def test_unknown_names_are_self_diagnosing(self):
        with pytest.raises(UnknownWorkloadError, match="cycle"):
            get_family("no-such-family")
        with pytest.raises(UnknownWorkloadError, match="phase-crash"):
            get_mix("no-such-mix")
        with pytest.raises(UnknownWorkloadError, match="smoke"):
            get_preset("no-such-preset")

    def test_family_rejects_unknown_params(self):
        with pytest.raises(LabError, match="does not take"):
            get_family("cycle").generate({"bogus": 3})

    def test_every_family_generates_with_defaults(self):
        for name in list_families():
            family = get_family(name)
            topology = family.generate(seed=3)
            assert len(topology.vertices) >= 2
            simple = (
                topology.underlying_simple()
                if isinstance(topology, MultiDigraph)
                else topology
            )
            assert is_strongly_connected(simple) == family.strongly_connected

    def test_every_preset_expands(self):
        for name in list_presets():
            assert len(build_sweep(list(get_preset(name)), name=name)) > 0


class TestDeterminism:
    def test_family_generation_is_seed_deterministic(self):
        for name in list_families():
            family = get_family(name)
            assert family.generate(seed=42) == family.generate(seed=42)

    def test_random_family_varies_with_seed(self):
        family = get_family("erdos-renyi")
        a = family.generate({"n": 12, "p": 0.3}, seed=1)
        b = family.generate({"n": 12, "p": 0.3}, seed=2)
        assert a != b

    def test_build_sweep_reproduces_identical_run_keys(self):
        workload = Workload(
            "erdos-renyi",
            {"n": [5, 7], "p": 0.3},
            mixes=("all-conforming", "phase-crash", "last-moment", "free-ride"),
            seed=13,
        )
        keys_a = [run_key(e, s) for e, s in build_sweep(workload).items()]
        keys_b = [run_key(e, s) for e, s in build_sweep(workload).items()]
        assert keys_a == keys_b
        assert len(set(keys_a)) == len(keys_a), "grid collapsed onto itself"

    def test_different_workload_seed_changes_keys(self):
        base = Workload("erdos-renyi", {"n": 6}, seed=1)
        other = Workload("erdos-renyi", {"n": 6}, seed=2)
        keys = lambda w: {run_key(e, s) for e, s in build_sweep(w).items()}
        assert keys(base) != keys(other)

    def test_base_seed_rerolls_every_workload(self):
        workload = Workload("erdos-renyi", {"n": 6}, seed=7)
        default_keys = {run_key(e, s) for e, s in build_sweep(workload).items()}
        same = {run_key(e, s)
                for e, s in build_sweep(workload, base_seed=7).items()}
        rerolled = {run_key(e, s)
                    for e, s in build_sweep(workload, base_seed=999).items()}
        assert same == default_keys
        assert rerolled != default_keys

    def test_appending_workloads_keeps_earlier_keys(self):
        first = Workload("cycle", {"n": [3, 4]}, mixes=("phase-crash",))
        extra = Workload("clique", {"n": 3})
        alone = [run_key(e, s) for e, s in build_sweep(first).items()]
        combined = [run_key(e, s) for e, s in build_sweep([first, extra]).items()]
        assert combined[: len(alone)] == alone


class TestMixes:
    def test_expand_grid(self):
        assert expand_grid({}) == [{}]
        assert expand_grid({"n": 3}) == [{"n": 3}]
        assert expand_grid({"n": [3, 5], "p": 0.2}) == [
            {"n": 3, "p": 0.2},
            {"n": 5, "p": 0.2},
        ]

    def test_mix_overrides_shapes(self):
        topology = get_family("cycle").generate({"n": 5}, seed=0)
        from random import Random

        crash = get_mix("phase-crash").apply(topology, Random(1))
        assert isinstance(crash["faults"], FaultPlan)
        assert len(crash["faults"].crashes) == 1

        unlock = get_mix("last-moment").apply(topology, Random(1))
        assert list(unlock["strategies"].values()) == ["last-moment-unlock"]

        ride = get_mix("free-ride").apply(topology, Random(1))
        assert ride["strategies"]
        assert set(ride["strategies"].values()) == {"greedy-claim-only"}

        attack = get_mix("timeout-attack").apply(topology, Random(1))
        assert attack["params"]["attacker"] in topology.vertices

    def test_free_ride_coalition_is_the_source_component(self):
        from random import Random

        topology = get_family("two-coalition").generate(
            {"left": 3, "right": 2, "bridges": 1}, seed=0
        )
        ride = get_mix("free-ride").apply(topology, Random(5))
        # The cut-off side (the X cycle, which nothing can pay back) is
        # chosen structurally, not by name.
        assert set(ride["strategies"]) == {"X00", "X01", "X02"}

    def test_scenario_kwargs_merge_with_mix_overrides(self):
        sweep = build_sweep(
            Workload(
                "cycle",
                {"n": 3},
                mixes=("timeout-attack",),
                engines=("naive-timelock",),
                scenario_kwargs={"params": {"timeout_multiple": 3}},
            )
        )
        (_, scenario), = sweep.items()
        assert scenario.params["timeout_multiple"] == 3
        assert scenario.params["attacker"] in scenario.topology.vertices
        report = run_sweep(sweep.items(), parallel=False)
        assert not report.failures

    def test_contradictory_scenario_kwargs_raise(self):
        with pytest.raises(LabError, match="both set 'faults'"):
            build_sweep(
                Workload(
                    "cycle",
                    {"n": 3},
                    mixes=("phase-crash",),
                    scenario_kwargs={"faults": FaultPlan().crash("P00", at_time=1)},
                )
            )

    def test_mix_choices_are_rng_deterministic(self):
        from random import Random

        topology = get_family("cycle").generate({"n": 9}, seed=0)
        for name in list_mixes():
            mix = get_mix(name)
            assert mix.apply(topology, Random(7)) == mix.apply(topology, Random(7))


class TestEndToEnd:
    def test_adversary_grid_runs_and_stays_safe(self):
        sweep = build_sweep(
            Workload(
                "cycle",
                {"n": 3},
                mixes=("all-conforming", "phase-crash", "last-moment", "free-ride"),
            )
        )
        report = run_sweep(sweep, parallel=False, store=SqliteStore(":memory:"))
        assert not report.failures
        assert len(report.reports) == 4
        # Theorem 4.9 holds across every adversary mix.
        assert all(r.conforming_acceptable() for r in report.reports)
        # ... and the honest run reaches all-Deal.
        honest = [r for r in report.reports if "all-conforming" in r.scenario.name]
        assert honest and honest[0].all_deal()

    def test_multigraph_family_runs_through_multiswap(self):
        sweep = build_sweep(
            Workload("multigraph-cycle", {"n": 3, "copies": 2}, engines=("multiswap",))
        )
        report = run_sweep(sweep, parallel=False)
        assert not report.failures
        assert report.reports[0].all_deal()
        assert isinstance(report.reports[0].scenario.topology, MultiDigraph)


class TestImpossibility:
    def test_two_coalition_family_is_not_strongly_connected(self):
        topology = get_family("two-coalition").generate(
            {"left": 3, "right": 2, "bridges": 2}, seed=0
        )
        assert isinstance(topology, Digraph)
        assert not is_strongly_connected(topology)

    def test_free_ride_deviation_profits(self):
        topology = get_family("two-coalition").generate(seed=0)
        demo = impossibility_evidence(topology)
        assert demo.coalition_gain > 0
        assert all(v.startswith("X") for v in demo.coalition)

    def test_engines_refuse_the_impossible_workload(self):
        sweep = build_sweep(
            Workload("two-coalition", mixes=("all-conforming", "free-ride"))
        )
        report = run_sweep(sweep, parallel=False)
        assert not report.reports
        assert len(report.failures) == 2
        assert {f.error_type for f in report.failures} == {
            "NotStronglyConnectedError"
        }
