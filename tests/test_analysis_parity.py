"""Closed-form predictions must byte-match the simulator.

The acceptance bar for :mod:`repro.analysis.predict`: for every
conforming scenario — every strongly connected topology family at its
registry defaults, plus chain-delay / slack / start-time / explicit-
leader / fraction variants — the static profile equals the executed
:class:`~repro.api.report.RunReport` field for field.  Non-conforming
families must come back ``invalid`` and be refused by the engine, so the
analyzer and the engines agree on what is runnable (the serve gate
relies on exactly that agreement).
"""

from __future__ import annotations

import pytest

from repro.analysis.protocol import (
    COVERAGE_FULL,
    VERDICT_INVALID,
    analyze_scenario,
)
from repro.api.engine import get_engine
from repro.api.scenario import Scenario
from repro.analysis.engine import synthesize_report
from repro.digraph.digraph import Digraph
from repro.digraph.generators import cycle_digraph, triangle
from repro.errors import ReproError
from repro.lab.registry import get_family, list_families

FAMILIES = sorted(list_families())


def family_scenario(name: str) -> Scenario:
    family = get_family(name)
    return Scenario(family.generate(dict(family.defaults), seed=11))


def assert_full_parity(scenario: Scenario, engine: str = "herlihy") -> None:
    analysis = analyze_scenario(scenario, engine=engine)
    assert analysis.coverage == COVERAGE_FULL, [
        d.to_dict() for d in analysis.diagnostics
    ]
    prediction = analysis.prediction
    report = get_engine(engine).run(scenario)
    assert prediction.leaders == tuple(report.leaders)
    assert prediction.completion_time == report.completion_time
    assert prediction.phase_two_bound == report.phase_two_bound
    assert prediction.unlock_calls == report.unlock_calls
    assert prediction.milestone_counts == report.milestone_counts()
    assert prediction.contract_storage_bytes == report.contract_storage_bytes
    assert report.all_deal()


class TestFamilyParity:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_every_family_default(self, name):
        scenario = family_scenario(name)
        analysis = analyze_scenario(scenario)
        if analysis.verdict == VERDICT_INVALID:
            # The analyzer refuses — the engine must refuse too.
            with pytest.raises(ReproError):
                get_engine("herlihy").run(scenario)
        else:
            assert_full_parity(scenario)

    def test_conforming_families_are_fully_covered(self):
        # The verifier must not weasel out of SC simple-digraph families
        # by calling them unsupported.
        covered = [
            name
            for name in FAMILIES
            if analyze_scenario(family_scenario(name)).coverage == COVERAGE_FULL
        ]
        expected = [
            name
            for name in FAMILIES
            if get_family(name).strongly_connected
            and analyze_scenario(family_scenario(name)).verdict
            != VERDICT_INVALID
        ]
        assert covered == expected and len(covered) >= 5


class TestVariantParity:
    def test_chain_delays(self):
        assert_full_parity(
            Scenario(triangle(),
                     chain_delays={"Alice->Bob": 120, "Carol->Alice": 40})
        )

    def test_timeout_slack(self):
        assert_full_parity(Scenario(triangle(), timeout_slack=2))

    def test_explicit_start_time(self):
        assert_full_parity(Scenario(triangle(), start_time=777))

    def test_explicit_multi_leader_set(self):
        assert_full_parity(Scenario(cycle_digraph(5), leaders=("P01", "P03")))

    def test_nondefault_conforming_fractions(self):
        assert_full_parity(
            Scenario(triangle(), reaction_fraction=0.3, action_fraction=0.35)
        )

    def test_larger_delta(self):
        assert_full_parity(Scenario(cycle_digraph(4), delta=5000))

    def test_deadline_at_risk_scenarios_really_do_fail(self):
        # Where the analyzer declines to certify (the replay sends an
        # unlock at or past its hashkey's expiry), the engine genuinely
        # misses all-Deal: the replay's expiry check is what refuses.
        scenario = Scenario(
            triangle(), delta=50, reaction_fraction=0.4, action_fraction=0.5
        )
        analysis = analyze_scenario(scenario)
        assert analysis.coverage != COVERAGE_FULL
        assert not analysis.prediction.deadline_feasible
        assert not get_engine("herlihy").run(scenario).all_deal()

    def test_replay_certifies_what_a_shortest_hop_floor_refused(self):
        # know(v, i) + a crosses the *shortest-hop* expiry floor for two
        # parties here, but every unlock goes out before the expiry of
        # the path it really carries: full coverage, all-Deal at 6558,
        # and the synthesized report is the simulated one byte for byte.
        digraph = Digraph(
            ["P00", "P01", "P02", "P03"],
            [("P00", "P01"), ("P00", "P03"), ("P01", "P02"),
             ("P02", "P00"), ("P02", "P03"), ("P03", "P00")],
        )
        scenario = Scenario(
            digraph, chain_delays={"P02->P03": 173, "P02->P00": 885},
            delta=1000, reaction_fraction=0.4, action_fraction=0.3, seed=894,
        )
        assert_full_parity(scenario)
        prediction = analyze_scenario(scenario).prediction
        assert prediction.completion_time == 6558
        simulated = get_engine("herlihy").run(scenario).to_dict()
        synthesized = synthesize_report(scenario, prediction).to_dict()
        simulated.pop("wall_seconds")
        synthesized.pop("wall_seconds")
        assert synthesized == simulated

    def test_phase_crash_verdict_matches_engine(self):
        from repro.sim.faults import CrashPoint, FaultPlan

        scenario = Scenario(
            triangle(),
            faults=FaultPlan().crash(
                "Carol", at_point=CrashPoint.BEFORE_PHASE_TWO
            ),
        )
        analysis = analyze_scenario(scenario)
        assert analysis.verdict == "not-all-deal"
        assert not get_engine("herlihy").run(scenario).all_deal()
