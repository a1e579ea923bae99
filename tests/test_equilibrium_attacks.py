"""Tests for the equilibrium checker and the canned attack constructions."""

import hashlib
import json

import pytest

from repro.analysis.attacks import (
    free_ride_partition,
    last_moment_scenario,
    non_fvs_deadlock,
    premature_reveal_scenario,
)
from repro.analysis import equilibrium
from repro.analysis.equilibrium import (
    DEFAULT_MENU,
    MenuEntry,
    check_strong_nash,
)
from repro.analysis.outcomes import Outcome
from repro.api.engine import get_engine
from repro.core.protocol import run_swap
from repro.core.strategies import LastMomentUnlockParty, PrematureRevealParty
from repro.digraph.digraph import Digraph
from repro.digraph.generators import (
    chain_digraph,
    not_strongly_connected_example,
    triangle,
    two_leader_triangle,
)
from repro.errors import (
    AnalysisError,
    DigraphError,
    NotStronglyConnectedError,
    UnknownStrategyError,
)
from repro.sim.faults import CrashPoint, FaultPlan


class TestStrongNashSearch:
    @pytest.fixture(scope="class")
    def triangle_report(self):
        return check_strong_nash(triangle(), max_coalition_size=2)

    def test_no_profitable_deviation(self, triangle_report):
        # Definition 3.2: the protocol should be a strong Nash equilibrium;
        # the structured search must find no profitable joint deviation.
        assert triangle_report.equilibrium_supported()
        assert triangle_report.best_gain <= 0

    def test_uniformity_throughout_search(self, triangle_report):
        # Theorem 4.9 holds in every explored execution.
        assert triangle_report.uniformity_held()

    def test_search_is_exhaustive_over_menu(self, triangle_report):
        # 3 singletons x (6-1) + 3 pairs x (36-1) non-conform assignments.
        assert triangle_report.deviations_explored() == 3 * 5 + 3 * 35

    def test_two_leader_singletons(self):
        report = check_strong_nash(two_leader_triangle(), max_coalition_size=1)
        assert report.equilibrium_supported()
        assert report.uniformity_held()

    def test_menu_restriction(self):
        menu = (MenuEntry("conform"), DEFAULT_MENU[1])
        report = check_strong_nash(triangle(), max_coalition_size=1, menu=menu)
        assert report.deviations_explored() == 3
        assert report.equilibrium_supported()

    def test_reports_carry_outcomes(self, triangle_report):
        sample = triangle_report.explored[0]
        assert set(sample.outcomes) == {"Alice", "Bob", "Carol"}
        assert isinstance(sample.gain, int)


class TestStrongNashRefusals:
    """Searches that cannot support the equilibrium refuse before any run."""

    @pytest.fixture
    def no_runs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the search ran a deviation")

        monkeypatch.setattr(equilibrium, "run_sweep", refuse)

    @pytest.mark.parametrize("k", [0, -1])
    def test_no_coalition_explores_nothing(self, no_runs, k):
        with pytest.raises(AnalysisError, match="explores no deviation"):
            check_strong_nash(triangle(), max_coalition_size=k)

    def test_conform_only_menu_explores_nothing(self, no_runs):
        with pytest.raises(AnalysisError, match="explores no deviation"):
            check_strong_nash(triangle(), menu=(MenuEntry("conform"),))

    def test_not_strongly_connected(self, no_runs):
        # One connectivity error, worded as the simulator words it — not
        # one failed run per deviation.
        with pytest.raises(
            NotStronglyConnectedError, match="requires a strongly connected"
        ):
            check_strong_nash(not_strongly_connected_example(), max_coalition_size=1)

    def test_unknown_strategy_name(self, no_runs):
        menu = (MenuEntry("conform"), MenuEntry("typo", strategy="refuse-to-publsh"))
        with pytest.raises(UnknownStrategyError, match="refuse-to-publsh"):
            check_strong_nash(triangle(), max_coalition_size=1, menu=menu)


def _canonical_dump(report) -> str:
    """Every field of every explored deviation, in search order, as
    canonical JSON (sets sorted, outcomes by value)."""
    return json.dumps(
        [
            {
                "coalition": sorted(d.coalition),
                "assignment": sorted(d.assignment.items()),
                "payoff": d.payoff,
                "deal_payoff": d.deal_payoff,
                "gain": d.gain,
                "conforming_underwater": sorted(d.conforming_underwater),
                "outcomes": sorted((v, o.value) for v, o in d.outcomes.items()),
                "triggered": sorted(d.triggered),
            }
            for d in report.explored
        ],
        sort_keys=True,
        separators=(",", ":"),
    )


class TestDeviationParityPin:
    """The search's findings, byte for byte: a change to how deviations
    are run must not change a single explored outcome."""

    @pytest.mark.parametrize(
        "digraph, k, explored, digest",
        [
            (
                triangle(), 2, 120,
                "2a9a309b712162ef949e2094f58672e957f968dca22767f2fbd41835c65b5eee",
            ),
            (
                two_leader_triangle(), 1, 15,
                "3acc2628c5cebe71544092616801f170cb449563a9070cf81707313bd4f978f8",
            ),
            (
                two_leader_triangle(), 2, 120,
                "3326568b5a491d41aa8297f2a18d8f676e7031d8df26e771f65ffbaf13f18592",
            ),
        ],
        ids=["triangle-k2", "two-leader-k1", "two-leader-k2"],
    )
    def test_every_deviation_outcome_pinned(self, digraph, k, explored, digest):
        report = check_strong_nash(digraph, max_coalition_size=k)
        assert report.deviations_explored() == explored
        dump = _canonical_dump(report)
        assert hashlib.sha256(dump.encode()).hexdigest() == digest


class TestFreeRidePartition:
    def test_lemma_3_4_construction(self):
        demo = free_ride_partition(not_strongly_connected_example())
        assert demo.coalition == {"X0", "X1"}
        assert demo.victims == {"Y0", "Y1"}
        # The deviation is profitable for the coalition...
        assert demo.coalition_gain > 0
        # ...and each member does at least as well as Deal individually
        # ("the payoff for each individual vertex in X is either the same
        # or better than Deal"): X0 skips paying Y0 (Discount), X1 deals.
        assert demo.outcomes["X0"] is Outcome.DISCOUNT
        assert demo.outcomes["X1"] is Outcome.DEAL

    def test_chain_also_partitions(self):
        demo = free_ride_partition(chain_digraph(3))
        assert demo.coalition_gain > 0

    def test_strongly_connected_rejected(self):
        # Lemma 3.3: no such partition exists on an SC digraph.
        with pytest.raises(DigraphError):
            free_ride_partition(triangle())

    def test_triggered_arcs_are_internal_only(self):
        demo = free_ride_partition(not_strongly_connected_example())
        for (u, v) in demo.deviating_triggered:
            assert u in demo.coalition and v in demo.coalition


class TestNonFvsDeadlock:
    def test_theorem_4_12_deadlock(self):
        demo = non_fvs_deadlock(two_leader_triangle(), {"A"})
        assert demo.stalled_arcs
        # The uncovered follower cycle B <-> C starves.
        assert ("B", "C") in demo.stalled_arcs
        assert ("C", "B") in demo.stalled_arcs

    def test_valid_fvs_rejected(self):
        with pytest.raises(DigraphError):
            non_fvs_deadlock(two_leader_triangle(), {"A", "B"})

    def test_bigger_uncovered_cycle(self):
        d = Digraph(
            ["L", "F1", "F2", "F3"],
            [
                ("L", "F1"), ("F1", "L"),
                ("F1", "F2"), ("F2", "F3"), ("F3", "F1"),
            ],
        )
        demo = non_fvs_deadlock(d, {"L"})
        assert {("F1", "F2"), ("F2", "F3"), ("F3", "F1")} <= demo.stalled_arcs


class TestScenarios:
    def test_premature_reveal(self):
        report = get_engine("herlihy").run(
            premature_reveal_scenario(triangle(), "Alice", "Carol")
        )
        assert report.outcomes["Alice"] is Outcome.UNDERWATER
        assert report.conforming_acceptable()

    def test_last_moment_defused(self):
        report = get_engine("herlihy").run(
            last_moment_scenario(two_leader_triangle(), "C")
        )
        assert report.all_deal()

    @pytest.mark.parametrize(
        "scenario, reference",
        [
            (
                premature_reveal_scenario(triangle(), "Alice", "Carol"),
                lambda: run_swap(
                    triangle(),
                    use_broadcast=True,
                    strategies={"Alice": PrematureRevealParty},
                    faults=FaultPlan().crash("Carol", at_point=CrashPoint.AT_START),
                ),
            ),
            (
                last_moment_scenario(two_leader_triangle(), "C"),
                lambda: run_swap(
                    two_leader_triangle(), strategies={"C": LastMomentUnlockParty}
                ),
            ),
        ],
        ids=["premature-reveal", "last-moment"],
    )
    def test_engine_run_matches_direct_run(self, scenario, reference):
        # The scenarios describe exactly the runs the party classes and
        # fault plans hand-wired into run_swap describe.
        report = get_engine("herlihy").run(scenario)
        result = reference()
        assert report.outcomes == result.outcomes
        assert frozenset(report.triggered) == result.triggered
        assert report.completion_time == result.completion_time
        assert report.stored_bytes == result.stored_bytes
