"""The unified repro.api layer: registry, parity, round-trips, sweeps.

Covers the contract the rest of the repo now builds on:

* ``get_engine(name).run(scenario)`` works for all six adapters and
  agrees exactly with the direct runners (or, for the baselines, their
  assemblies run to quiescence) on the same seed;
* unknown engine/strategy names fail loudly with the registered names
  in the message;
* ``Scenario`` and ``RunReport`` survive a JSON round-trip;
* ``run_sweep`` executes 20+ scenarios with process-pool fan-out,
  preserving order and determinism.
"""

import json

import pytest

from repro import (
    FaultPlan,
    CrashPoint,
    MultiDigraph,
    Outcome,
    ReproError,
    Scenario,
    Sweep,
    get_engine,
    list_engines,
    run_swap,
    run_sweep,
    triangle,
)
from repro.api import RunReport, derive_seed, register_engine
from repro.baselines.naive_timelock import _prepare_naive_timelock_swap
from repro.baselines.pairwise_htlc import _prepare_sequential_trust_swap
from repro.baselines.two_phase_commit import _prepare_two_phase_commit_swap
from repro.core.multiswap import run_multigraph_swap
from repro.core.timelocks import run_single_leader_swap
from repro.digraph.generators import cycle_digraph
from repro.errors import (
    ScenarioError,
    UnknownEngineError,
    UnknownStrategyError,
)

ALL_ENGINES = ("herlihy", "single-leader", "multiswap", "naive-timelock",
               "sequential-trust", "2pc")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_all_six_engines_registered(self):
        assert set(ALL_ENGINES) <= set(list_engines())

    def test_unknown_engine_lists_registered_names(self):
        with pytest.raises(UnknownEngineError) as excinfo:
            get_engine("herlihyy")
        message = str(excinfo.value)
        assert "herlihyy" in message
        for name in ALL_ENGINES:
            assert name in message

    def test_unknown_engine_is_a_repro_error(self):
        assert issubclass(UnknownEngineError, ReproError)
        with pytest.raises(ReproError):
            get_engine("nope")

    def test_double_registration_rejected(self):
        from repro.errors import EngineError

        with pytest.raises(EngineError):
            register_engine(get_engine("herlihy"))

    def test_unknown_strategy_lists_registered_names(self):
        scenario = Scenario(
            topology=triangle(), strategies={"Carol": "no-such-strategy"}
        )
        with pytest.raises(UnknownStrategyError) as excinfo:
            get_engine("herlihy").run(scenario)
        assert "last-moment-unlock" in str(excinfo.value)

    def test_unknown_params_rejected(self):
        scenario = Scenario(topology=triangle(), params={"attacker": "Carol"})
        with pytest.raises(ScenarioError):
            get_engine("herlihy").run(scenario)

    def test_parallel_arcs_rejected_by_simple_engines(self):
        """Only 'multiswap' honours multiplicity; the others must refuse
        rather than silently drop parallel transfers."""
        multigraph = MultiDigraph(
            ["Alice", "Bob", "Carol"],
            [("Alice", "Bob"), ("Alice", "Bob"), ("Bob", "Carol"),
             ("Carol", "Alice")],
        )
        scenario = Scenario(topology=multigraph)
        for name in ("herlihy", "single-leader", "naive-timelock",
                     "sequential-trust", "2pc"):
            with pytest.raises(ScenarioError, match="multiswap"):
                get_engine(name).run(scenario)
        assert get_engine("multiswap").run(scenario).all_deal()

    def test_multi_leader_rejected_by_single_leader_engines(self):
        """Engines built around one leader refuse multi-leader scenarios
        instead of silently dropping leaders[1:]."""
        scenario = Scenario(topology=triangle(), leaders=("Alice", "Bob"))
        for name in ("single-leader", "naive-timelock"):
            with pytest.raises(ScenarioError, match="exactly one leader"):
                get_engine(name).run(scenario)

    def test_multiplicity_one_multigraph_accepted(self):
        """A multigraph with no parallel arcs projects losslessly."""
        flat = MultiDigraph(
            ["Alice", "Bob", "Carol"],
            [("Alice", "Bob"), ("Bob", "Carol"), ("Carol", "Alice")],
        )
        report = get_engine("herlihy").run(Scenario(topology=flat))
        assert report.all_deal()

    def test_faults_rejected_by_trust_baselines(self):
        scenario = Scenario(
            topology=triangle(),
            faults=FaultPlan().crash("Carol", at_time=100),
        )
        for name in ("sequential-trust", "2pc"):
            with pytest.raises(ScenarioError):
                get_engine(name).run(scenario)


# ---------------------------------------------------------------------------
# cross-engine agreement and legacy parity
# ---------------------------------------------------------------------------


class TestCrossEngineAgreement:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_triangle_all_conforming_all_deal(self, engine):
        report = get_engine(engine).run(Scenario(topology=triangle(), seed=11))
        assert isinstance(report, RunReport)
        assert report.all_deal()
        assert set(report.outcomes.values()) == {Outcome.DEAL}
        assert report.engine == engine
        assert report.wall_seconds >= 0.0
        assert len(report.triggered) == triangle().arc_count()


def _run_to_quiescence(prepared):
    """Drive a baseline's ``(harness, start, finalize)`` assembly directly,
    bypassing the execution session."""
    harness, start, finalize = prepared
    return finalize(harness.run_to_quiescence(start))


class TestLegacyParity:
    """Same seed, same scenario -> identical per-party outcomes."""

    def assert_parity(self, report, legacy):
        assert report.outcomes == legacy.outcomes
        assert set(report.triggered) == set(legacy.triggered)
        assert set(report.refunded) == set(legacy.refunded)
        assert report.completion_time == legacy.completion_time
        assert report.events_fired == legacy.events_fired

    def test_herlihy(self):
        scenario = Scenario(
            topology=triangle(), seed=23,
            strategies={"Carol": "last-moment-unlock"},
        )
        report = get_engine("herlihy").run(scenario)
        from repro.core.strategies import LastMomentUnlockParty

        legacy = run_swap(
            triangle(),
            seed=23,
            strategies={"Carol": LastMomentUnlockParty},
        )
        self.assert_parity(report, legacy)

    def test_herlihy_with_faults(self):
        faults = FaultPlan().crash("Carol", at_point=CrashPoint.BEFORE_PHASE_TWO)
        report = get_engine("herlihy").run(
            Scenario(topology=triangle(), seed=5, faults=faults)
        )
        legacy = run_swap(
            triangle(),
            seed=5,
            faults=FaultPlan().crash("Carol", at_point=CrashPoint.BEFORE_PHASE_TWO),
        )
        self.assert_parity(report, legacy)
        assert not report.all_deal()
        assert report.conforming_acceptable()

    def test_single_leader(self):
        report = get_engine("single-leader").run(
            Scenario(topology=triangle(), seed=23, params={"leader": "Alice"})
        )
        legacy = run_single_leader_swap(
            triangle(), leader="Alice", seed=23
        )
        self.assert_parity(report, legacy)

    def test_multiswap(self):
        multigraph = MultiDigraph(
            ["Alice", "Bob", "Carol"],
            [("Alice", "Bob"), ("Alice", "Bob"), ("Bob", "Carol"),
             ("Carol", "Alice")],
        )
        report = get_engine("multiswap").run(
            Scenario(topology=multigraph, seed=23)
        )
        legacy = run_multigraph_swap(multigraph, seed=23)
        assert report.outcomes == legacy.outcomes
        assert report.extra["triggered_multiarcs"] == sorted(
            list(a) for a in legacy.triggered_multiarcs
        )
        assert report.all_deal()

    def test_naive_timelock_attacked(self):
        report = get_engine("naive-timelock").run(
            Scenario(topology=triangle(), seed=23, params={"attacker": "Carol"})
        )
        legacy = _prepare_naive_timelock_swap(
            Scenario(topology=triangle(), seed=23, params={"attacker": "Carol"})
        ).run()
        self.assert_parity(report, legacy)
        assert not report.conforming_acceptable()  # the §1 attack lands

    def test_sequential_trust_defection(self):
        report = get_engine("sequential-trust").run(
            Scenario(
                topology=triangle(), seed=23,
                params={"first_mover": "Alice", "defectors": ["Carol"]},
            )
        )
        legacy = _run_to_quiescence(_prepare_sequential_trust_swap(
            Scenario(
                topology=triangle(), seed=23,
                params={"first_mover": "Alice", "defectors": ["Carol"]},
            )
        ))
        self.assert_parity(report, legacy)
        assert not report.conforming_acceptable()

    def test_two_phase_commit_byzantine(self):
        report = get_engine("2pc").run(
            Scenario(
                topology=triangle(), seed=23,
                params={"byzantine_commit_only": [["Alice", "Bob"]]},
            )
        )
        legacy = _run_to_quiescence(_prepare_two_phase_commit_swap(
            Scenario(
                topology=triangle(), seed=23,
                params={"byzantine_commit_only": [["Alice", "Bob"]]},
            )
        ))
        self.assert_parity(report, legacy)
        assert not report.conforming_acceptable()


#: One value per run parameter a direct runner takes as a keyword; each
#: changes the compared quantities except ``seed`` (fixed-width secrets
#: leave every count and time unchanged).
RUN_PARAMETERS = {
    "delta": 500,
    "timeout_slack": 10,
    "start_time": 5000,
    "use_broadcast": True,
    "reaction_fraction": 0.3,
    "action_fraction": 0.4,
    "seed": 99,
    "diam_override": 12,
    "scheme_name": "lamport",
    "timing": "jittered",
    "chain_delays": {"Alice->Bob": 300},
}


class TestFrontDoors:
    """Each run parameter reaches a direct runner and an engine alike."""

    @staticmethod
    def observed(result):
        return (
            dict(result.outcomes),
            sorted(result.triggered),
            result.completion_time,
            result.events_fired,
            result.stored_bytes,
        )

    @pytest.mark.parametrize("field", sorted(RUN_PARAMETERS))
    def test_run_parameter_reaches_both_front_doors(self, field):
        value = RUN_PARAMETERS[field]
        direct = self.observed(run_swap(triangle(), **{field: value}))
        engine = get_engine("herlihy").run(Scenario(triangle(), **{field: value}))
        assert direct == self.observed(engine)
        if field != "seed":
            assert direct != self.observed(run_swap(triangle()))


# ---------------------------------------------------------------------------
# serialization round-trips
# ---------------------------------------------------------------------------


class TestRoundTrips:
    def test_scenario_json_round_trip(self):
        scenario = Scenario(
            topology=triangle(),
            name="rt",
            leaders=("Alice",),
            delta=500,
            seed=99,
            faults=FaultPlan()
            .crash("Bob", at_time=1200)
            .crash("Carol", at_point=CrashPoint.BEFORE_PHASE_TWO),
            strategies={"Alice": "premature-reveal"},
            params={"attacker": "Carol", "arcs": [("A", "B")]},
        )
        wire = json.loads(json.dumps(scenario.to_dict()))
        assert Scenario.from_dict(wire) == scenario

    def test_scenario_multigraph_round_trip(self):
        multigraph = MultiDigraph(
            ["A", "B"], [("A", "B"), ("A", "B"), ("B", "A")]
        )
        scenario = Scenario(topology=multigraph)
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_scenario_rejects_unknown_fields(self):
        data = Scenario(topology=triangle()).to_dict()
        data["delta_model"] = 3
        with pytest.raises(ScenarioError):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_run_report_json_round_trip(self, engine):
        report = get_engine(engine).run(Scenario(topology=triangle(), seed=3))
        wire = json.loads(json.dumps(report.to_dict()))
        restored = RunReport.from_dict(wire)
        assert restored == report  # raw is excluded from equality
        assert restored.raw is None and report.raw is not None
        assert restored.all_deal() == report.all_deal()
        assert restored.outcomes == report.outcomes

    def test_report_raw_exposes_legacy_result(self):
        report = get_engine("herlihy").run(Scenario(topology=triangle()))
        assert report.raw.trace.count("arc_triggered") == len(report.triggered)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


class TestSweep:
    def build_sweep(self) -> Sweep:
        sweep = Sweep("t", base_seed=13)
        sweep.add_product(
            ALL_ENGINES,
            [("tri", triangle()), ("c4", cycle_digraph(4))],
        )  # 12 scenarios
        sweep.add_product(
            ["herlihy"],
            [("tri", triangle())],
            strategies_grid=[
                {}, {"Carol": "last-moment-unlock"}, {"Bob": "withhold-secret"},
                {"Alice": "refuse-to-publish"},
            ],
        )  # +4
        sweep.add_product(
            ["2pc"],
            [("tri", triangle())],
            params_grid=[
                {}, {"coordinator_crashes": True},
                {"byzantine_commit_only": [["Alice", "Bob"]]},
                {"byzantine_commit_only": [["Bob", "Carol"]]},
            ],
        )  # +4
        return sweep

    def test_parallel_sweep_of_twenty_scenarios(self):
        sweep = self.build_sweep()
        assert len(sweep) == 20
        report = run_sweep(sweep, parallel=True, max_workers=2)
        assert len(report) == 20
        assert report.mode in ("process-pool", "serial-fallback")
        # order preserved: report i matches sweep item i
        for (engine, scenario), run in zip(sweep.items(), report.reports):
            assert run.engine == engine
            assert run.scenario.name == scenario.name
        # the honest dozen all end all-Deal
        assert all(r.all_deal() for r in report.reports[:12])
        # hashkey protocol stays Theorem-4.9 safe under every strategy
        assert all(r.conforming_acceptable() for r in report.reports[12:16])

    def test_serial_matches_parallel(self):
        sweep = Sweep("d", base_seed=1).add_product(
            ALL_ENGINES, [("tri", triangle())]
        )
        parallel = run_sweep(sweep, parallel=True)
        serial = run_sweep(sweep, parallel=False)
        assert serial.mode == "serial"
        for a, b in zip(parallel.reports, serial.reports):
            assert a.outcomes == b.outcomes
            assert a.triggered == b.triggered
            assert a.scenario.seed == b.scenario.seed

    def test_deterministic_seeding(self):
        one = Sweep("s", base_seed=42).add_product(["herlihy"], [triangle()] * 3)
        two = Sweep("s", base_seed=42).add_product(["herlihy"], [triangle()] * 3)
        seeds = [s.seed for _, s in one.items()]
        assert seeds == [s.seed for _, s in two.items()]
        assert len(set(seeds)) == 3  # distinct per index
        assert seeds[0] == derive_seed(42, "herlihy", 0)
        other_base = [
            s.seed for _, s in
            Sweep("s", base_seed=43).add_product(["herlihy"], [triangle()] * 3).items()
        ]
        assert other_base != seeds

    def test_sweep_rejects_unknown_engine_eagerly(self):
        with pytest.raises(UnknownEngineError):
            Sweep().add("warp-drive", Scenario(topology=triangle()))

    def test_empty_sweep_rejected(self):
        from repro.errors import EngineError

        with pytest.raises(EngineError):
            run_sweep(Sweep("empty"))

    def test_infeasible_scenario_collected_not_fatal(self):
        """K4 has no single-vertex feedback vertex set: the single-leader
        engines fail per-scenario while the rest of the sweep survives."""
        from repro.digraph.generators import complete_digraph
        from repro.errors import EngineError

        sweep = Sweep("mixed").add_product(
            ["herlihy", "single-leader", "naive-timelock"],
            [("K4", complete_digraph(4))],
        )
        report = run_sweep(sweep, parallel=True)
        assert len(report.reports) == 1  # herlihy handles K4 fine
        assert report.reports[0].all_deal()
        assert len(report.failures) == 2
        assert {f.error_type for f in report.failures} == {
            "TimeoutAssignmentError"
        }
        assert "FAILED" in report.summary()
        with pytest.raises(EngineError, match="2 sweep run"):
            report.raise_failures()
        # serial path collects identically
        serial = run_sweep(sweep, parallel=False)
        assert len(serial.failures) == 2

    def test_sweep_report_aggregation(self):
        sweep = Sweep("agg").add_product(["herlihy", "2pc"], [triangle()])
        report = run_sweep(sweep, parallel=False)
        assert report.all_deal_rate() == 1.0
        assert report.all_deal_rate("herlihy") == 1.0
        grouped = report.by_engine()
        assert sorted(grouped) == ["2pc", "herlihy"]
        assert all(len(runs) == 1 for runs in grouped.values())
        wire = report.to_dict()
        assert len(wire["reports"]) == 2
