"""The lab's timing axis: registry, workload crossing, CLI, analytics —
plus the two new registry entries (power-law family, colluding-crash
mix) that ride the same machinery.
"""

from __future__ import annotations

import json
from random import Random

import pytest

from repro.__main__ import main
from repro.api.sweep import run_key, run_sweep
from repro.digraph.generators import powerlaw_strongly_connected
from repro.digraph.paths import is_strongly_connected
from repro.errors import DigraphError, LabError, UnknownWorkloadError
from repro.lab import (
    TimingProfile,
    Workload,
    aggregate,
    build_sweep,
    collect_facts,
    entry_facts,
    get_family,
    get_mix,
    get_timing,
    list_timings,
    register_timing,
    timing_of,
)
from repro.lab.store import SqliteStore


def _lab(args):
    return main(["lab", *args])


# ---------------------------------------------------------------------------
# timing registry
# ---------------------------------------------------------------------------


class TestTimingRegistry:
    def test_builtins_registered(self):
        names = list_timings()
        for expected in ("uniform", "jittered", "stragglers", "straggler-pair"):
            assert expected in names

    def test_unknown_name_lists_registered(self):
        with pytest.raises(UnknownWorkloadError, match="timing profile"):
            get_timing("warp-speed")

    def test_duplicate_rejected(self):
        with pytest.raises(LabError, match="already registered"):
            register_timing(TimingProfile("uniform", "dupe", None))

    def test_bad_spec_rejected_at_registration(self):
        with pytest.raises(Exception, match="unknown timing kind"):
            register_timing(TimingProfile("broken", "bad", {"kind": "nope"}))

    def test_uniform_spec_is_none(self):
        assert get_timing("uniform").spec is None
        assert get_timing("stragglers").spec == {"kind": "stragglers"}


# ---------------------------------------------------------------------------
# workload crossing
# ---------------------------------------------------------------------------


class TestWorkloadTimings:
    def test_timing_axis_multiplies_runs(self):
        base = Workload("cycle", {"n": [3, 4]})
        crossed = Workload("cycle", {"n": [3, 4]},
                           timings=("uniform", "jittered", "stragglers"))
        assert len(build_sweep(crossed)) == 3 * len(build_sweep(base))

    def test_default_axis_keeps_run_keys_identical(self):
        """timings=("uniform",) is the no-op: same scenarios, same keys."""
        before = build_sweep(Workload("cycle", {"n": [3, 4]})).items()
        after = build_sweep(
            Workload("cycle", {"n": [3, 4]}, timings=("uniform",))
        ).items()
        assert [run_key(e, s) for e, s in before] == [
            run_key(e, s) for e, s in after
        ]

    def test_each_timing_gets_its_own_run_key(self):
        sweep = build_sweep(
            Workload("cycle", {"n": 3},
                     timings=("uniform", "jittered", "stragglers"))
        )
        keys = [run_key(e, s) for e, s in sweep.items()]
        assert len(set(keys)) == 3

    def test_non_uniform_scenarios_are_tagged_in_names(self):
        sweep = build_sweep(
            Workload("cycle", {"n": 3}, timings=("uniform", "jittered"))
        )
        names = [s.name for _, s in sweep.items()]
        assert any("@jittered#" in n for n in names)
        # Uniform names keep the historical shape (no tag).
        assert any("@"  not in n for n in names)

    def test_mix_overrides_identical_across_timings(self):
        sweep = build_sweep(
            Workload("cycle", {"n": 4}, mixes=("phase-crash",),
                     timings=("uniform", "stragglers"))
        )
        scenarios = [s for _, s in sweep.items()]
        assert scenarios[0].faults.crashes == scenarios[1].faults.crashes

    def test_scenario_kwargs_timing_conflict_rejected(self):
        workload = Workload(
            "cycle", {"n": 3},
            timings=("jittered",),
            scenario_kwargs={"timing": {"kind": "stragglers"}},
        )
        with pytest.raises(LabError, match="both set 'timing'"):
            build_sweep(workload)

    def test_scenario_kwargs_timing_alone_is_fine(self):
        workload = Workload(
            "cycle", {"n": 3},
            scenario_kwargs={"timing": {"kind": "stragglers"}},
        )
        (_, scenario), = build_sweep(workload).items()
        assert scenario.timing["kind"] == "stragglers"


# ---------------------------------------------------------------------------
# analytics: the timing dimension
# ---------------------------------------------------------------------------


class TestTimingAnalytics:
    def _store_with_timings(self):
        store = SqliteStore(":memory:")
        sweep = build_sweep(
            Workload("cycle", {"n": 4},
                     timings=("uniform", "jittered", "stragglers"))
        )
        run_sweep(sweep, parallel=False, store=store)
        return store

    def test_facts_carry_timing(self):
        facts = collect_facts(self._store_with_timings())
        assert sorted(f.timing for f in facts) == [
            "jittered", "stragglers", "uniform",
        ]

    def test_aggregate_by_timing(self):
        stats = aggregate(collect_facts(self._store_with_timings()),
                          by=("timing",))
        by_timing = {gs.group[0][1]: gs for gs in stats}
        assert by_timing["uniform"].all_deal == 1
        assert by_timing["stragglers"].all_deal == 0  # the broken regime

    def test_pre_timing_entries_group_as_uniform(self):
        """Entries stored before the field existed have no 'timing' key."""
        entry = {
            "ok": True,
            "report": {
                "engine": "herlihy",
                "scenario": {"name": "lab:cycle:n=3:all-conforming:herlihy#0"},
                "outcomes": {"A": "deal"},
                "conforming": ["A"],
            },
        }
        fact = entry_facts("k" * 64, entry)
        assert fact.timing == "uniform"

    def test_timing_of_shapes(self):
        assert timing_of({}) == "uniform"
        assert timing_of({"timing": None}) == "uniform"
        assert timing_of({"timing": "jittered"}) == "jittered"
        assert timing_of({"timing": {"kind": "stragglers"}}) == "stragglers"

    def test_failure_records_carry_timing(self):
        entry = {
            "ok": False,
            "engine": "single-leader",
            "scenario": {"name": "x", "timing": {"kind": "jittered"}},
            "error_type": "TimeoutAssignmentError",
            "message": "no single leader",
        }
        assert entry_facts("k" * 64, entry).timing == "jittered"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestTimingCli:
    @pytest.fixture
    def store_path(self, tmp_path):
        return str(tmp_path / "runs.sqlite")

    def test_lab_timings_lists_profiles(self, capsys):
        assert _lab(["timings"]) == 0
        out = capsys.readouterr().out
        for name in ("uniform", "jittered", "stragglers"):
            assert name in out

    def test_run_with_timing_flag(self, store_path, capsys):
        assert _lab([
            "run", "--family", "cycle", "--grid", "n=4",
            "--timing", "uniform", "--timing", "stragglers",
            "--serial", "--store", store_path,
        ]) == 0
        assert "executed 2, cached 0" in capsys.readouterr().out
        # Same invocation is warm (timing participates in run keys).
        assert _lab([
            "run", "--family", "cycle", "--grid", "n=4",
            "--timing", "uniform", "--timing", "stragglers",
            "--serial", "--store", store_path,
        ]) == 0
        assert "executed 0, cached 2" in capsys.readouterr().out

    def test_run_with_unknown_timing_fails_fast(self, store_path, capsys):
        assert _lab([
            "run", "--family", "cycle", "--grid", "n=3",
            "--timing", "warp-speed", "--serial", "--store", store_path,
        ]) == 1
        assert "timing profile" in capsys.readouterr().err

    def test_stats_by_timing_json(self, store_path, capsys):
        assert _lab([
            "run", "--family", "cycle", "--grid", "n=4",
            "--timing", "uniform", "--timing", "stragglers",
            "--serial", "--store", store_path,
        ]) == 0
        capsys.readouterr()
        assert _lab(["stats", "--by", "timing", "--json",
                     "--store", store_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["by"] == ["timing"]
        groups = {dict(g["group"])["timing"]: g for g in payload["groups"]}
        assert groups["uniform"]["all_deal_rate"] == 1.0
        assert groups["stragglers"]["all_deal_rate"] == 0.0


# ---------------------------------------------------------------------------
# the power-law family
# ---------------------------------------------------------------------------


class TestPowerLawFamily:
    def test_generator_is_deterministic(self):
        a = powerlaw_strongly_connected(10, rng=Random(42))
        b = powerlaw_strongly_connected(10, rng=Random(42))
        assert a.vertices == b.vertices and a.arcs == b.arcs

    def test_strongly_connected(self):
        for seed in range(5):
            assert is_strongly_connected(
                powerlaw_strongly_connected(12, rng=Random(seed))
            )

    def test_heavy_tail_concentrates_extra_arcs(self):
        digraph = powerlaw_strongly_connected(
            20, exponent=2.2, extra_arcs=40, rng=Random(7)
        )
        out_degrees = sorted(
            (len(digraph.out_arcs(v)) for v in digraph.vertices), reverse=True
        )
        # The Hamiltonian cycle gives everyone out-degree 1; the Zipf
        # weights should pile most of the 40 extras on a few hubs.
        assert out_degrees[0] >= 5
        assert out_degrees[-1] >= 1  # cycle arc keeps everyone connected

    def test_validation(self):
        with pytest.raises(DigraphError):
            powerlaw_strongly_connected(1)
        with pytest.raises(DigraphError):
            powerlaw_strongly_connected(5, exponent=0)
        with pytest.raises(DigraphError):
            powerlaw_strongly_connected(5, extra_arcs=-1)

    def test_registered_family_generates(self):
        family = get_family("power-law")
        topology = family.generate(seed=3)
        assert is_strongly_connected(topology)
        assert len(topology.vertices) == 8

    def test_family_rejects_unknown_params(self):
        with pytest.raises(LabError, match="does not take"):
            get_family("power-law").generate({"hubs": 3})

    def test_family_runs_through_an_engine(self):
        sweep = build_sweep(Workload("power-law", {"n": 6, "extra": 8}))
        report = run_sweep(sweep, parallel=False)
        assert len(report.reports) == 1
        assert report.reports[0].all_deal()


# ---------------------------------------------------------------------------
# the colluding crash+strategy mix
# ---------------------------------------------------------------------------


class TestColludingCrashMix:
    def test_overrides_combine_faults_and_strategies(self):
        from repro.digraph.generators import cycle_digraph

        mix = get_mix("colluding-crash")
        overrides = mix.apply(cycle_digraph(6), Random(1))
        assert overrides["faults"].crashes  # one crasher
        assert overrides["strategies"]  # at least one deviator
        crasher = next(iter(overrides["faults"].crashes))
        assert crasher not in overrides["strategies"]

    def test_deterministic_in_rng(self):
        from repro.digraph.generators import cycle_digraph

        mix = get_mix("colluding-crash")
        a = mix.apply(cycle_digraph(6), Random(9))
        b = mix.apply(cycle_digraph(6), Random(9))
        assert a["strategies"] == b["strategies"]
        assert a["faults"].crashes == b["faults"].crashes

    def test_minimum_coalition_on_tiny_topology(self):
        from repro.digraph.generators import cycle_digraph

        overrides = get_mix("colluding-crash").apply(cycle_digraph(2), Random(0))
        members = set(overrides["faults"].crashes) | set(overrides["strategies"])
        assert len(members) == 2

    def test_thm49_holds_against_the_coalition(self):
        """The whole point: crash+strategy collusion must not drive any
        conforming party Underwater (Theorem 4.9)."""
        sweep = build_sweep(
            Workload("cycle", {"n": [4, 6]}, mixes=("colluding-crash",))
        )
        report = run_sweep(sweep, parallel=False)
        assert report.reports, "colluding-crash runs failed to execute"
        for run in report.reports:
            assert run.conforming_acceptable(), run.scenario.name
            assert not run.all_deal()  # the coalition does disrupt the swap
