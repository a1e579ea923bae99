"""The static scenario verifier: diagnostics, coverage, verdicts.

Structural edge cases (empty leader sets, non-SC multigraphs, self-loop
arcs, zero/negative Δ, duplicate and ambiguous chain-delay labels) must
come back as machine-readable diagnostics — code + JSON path + severity
— never as raised exceptions, and the coverage/verdict taxonomy of
:mod:`repro.analysis.protocol` must degrade exactly as documented.
Closed-form *exactness* is asserted separately in
``test_analysis_parity.py``.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.analysis.diagnostics import Diagnostic, has_errors
from repro.analysis.predict import predict
from repro.analysis.protocol import (
    COVERAGE_FULL,
    COVERAGE_NONE,
    COVERAGE_VERDICT,
    PREDICTABLE_ENGINES,
    VERDICTS,
    analyze_scenario,
    check_submission,
)
from repro.analysis.structure import check_scenario
from repro.api.scenario import Scenario
from repro.api.sweep import Sweep, run_sweep
from repro.digraph.digraph import Digraph
from repro.digraph.generators import cycle_digraph, random_strongly_connected, triangle
from repro.digraph.multigraph import MultiDigraph
from repro.sim.faults import CrashPoint, FaultPlan


def payload(**overrides) -> dict:
    """A minimal valid triangle submission, with overrides."""
    base = {
        "topology": {
            "kind": "digraph",
            "vertices": ["A", "B", "C"],
            "arcs": [["A", "B"], ["B", "C"], ["C", "A"]],
        },
    }
    base.update(overrides)
    return base


def codes(diagnostics: tuple[Diagnostic, ...]) -> set[str]:
    return {d.code for d in diagnostics}


def by_path(diagnostics: tuple[Diagnostic, ...], code: str) -> list[str]:
    return [d.path for d in diagnostics if d.code == code]


class TestPayloadDiagnostics:
    def test_clean_payload_has_no_diagnostics(self):
        assert check_submission(payload()) == ()

    def test_non_dict_payload(self):
        (diag,) = check_submission(["not", "a", "dict"])
        assert diag.code == "payload/not-a-dict" and diag.severity == "error"

    def test_unknown_field_names_its_path(self):
        diags = check_submission(payload(nonsense=True))
        assert by_path(diags, "payload/unknown-field") == ["/nonsense"]

    @pytest.mark.parametrize(
        "field, value",
        [("scheme_name", ["x"]), ("name", 5), ("seed", "x"), ("exact_limit", True),
         ("use_broadcast", "yes")],
    )
    def test_mistyped_field_names_its_path(self, field, value):
        diags = check_submission(payload(**{field: value}))
        assert by_path(diags, "payload/bad-type") == [f"/{field}"]

    def test_self_loop_arc(self):
        diags = check_submission(
            payload(topology={"vertices": ["A", "B"],
                              "arcs": [["A", "B"], ["B", "B"]]})
        )
        assert by_path(diags, "topology/self-loop") == ["/topology/arcs/1"]

    def test_duplicate_arc_in_simple_digraph(self):
        diags = check_submission(
            payload(topology={"vertices": ["A", "B"],
                              "arcs": [["A", "B"], ["A", "B"], ["B", "A"]]})
        )
        assert by_path(diags, "topology/duplicate-arc") == ["/topology/arcs/1"]

    @pytest.mark.parametrize("delta", [0, -3, 1.5, True, "fast"])
    def test_zero_negative_or_non_tick_delta(self, delta):
        diags = check_submission(payload(delta=delta))
        assert by_path(diags, "timing/bad-delta") == ["/delta"]

    def test_negative_slack_and_start(self):
        diags = check_submission(payload(timeout_slack=-1, start_time=-5))
        assert "timing/bad-slack" in codes(diags)
        assert "timing/bad-start" in codes(diags)

    @pytest.mark.parametrize("diam", [0, -1, 2.5, "two"])
    def test_diam_override_below_one_or_non_integer(self, diam):
        diags = check_submission(payload(diam_override=diam))
        assert by_path(diags, "timing/bad-diam") == ["/diam_override"]

    def test_nonconforming_fractions_warn_but_do_not_error(self):
        diags = check_submission(
            payload(reaction_fraction=0.7, action_fraction=0.6)
        )
        assert codes(diags) == {"timing/nonconforming-fractions"}
        assert not has_errors(diags)

    def test_empty_leader_list(self):
        diags = check_submission(payload(leaders=[]))
        assert "leaders/empty" in codes(diags)

    def test_unknown_leader_has_indexed_path(self):
        diags = check_submission(payload(leaders=["A", "Z"]))
        assert by_path(diags, "leaders/unknown-vertex") == ["/leaders/1"]

    def test_chain_delay_label_edge_cases(self):
        diags = check_submission(
            payload(chain_delays={
                "A->B": 100,        # fine
                "A=>B": 10,         # not an arc label
                "C->A": -5,         # valid arc, negative delay
                "A->C": 10,         # no such arc (triangle goes C->A)
            })
        )
        assert by_path(diags, "chain-delays/bad-label") == ["/chain_delays/A=>B"]
        assert by_path(diags, "chain-delays/bad-delay") == ["/chain_delays/C->A"]
        assert by_path(diags, "chain-delays/unknown-arc") == ["/chain_delays/A->C"]

    def test_parallel_arc_chain_delay_label_is_ambiguous(self):
        diags = check_submission(
            payload(
                topology={
                    "kind": "multigraph",
                    "vertices": ["A", "B"],
                    "arcs": [["A", "B", 0], ["A", "B", 1], ["B", "A", 0]],
                },
                chain_delays={"A->B": 50},
            )
        )
        ambiguous = [d for d in diags if d.code == "chain-delays/ambiguous-label"]
        assert [d.path for d in ambiguous] == ["/chain_delays/A->B"]
        assert ambiguous[0].severity == "warning"

    def test_non_integer_parallel_arc_key(self):
        diags = check_submission(
            payload(topology={
                "kind": "multigraph",
                "vertices": ["A", "B"],
                "arcs": [["A", "B", "x"], ["B", "A", 0]],
            })
        )
        assert by_path(diags, "topology/bad-arc-key") == ["/topology/arcs/0/2"]

    def test_fault_spec_validation(self):
        diags = check_submission(
            payload(faults={
                "Z": {"at_point": "before_phase_two"},
                "A": {},
                "B": {"at_point": "while-shaving"},
            })
        )
        assert "faults/unknown-party" in codes(diags)
        assert "/faults/A" in by_path(diags, "faults/bad-crash")
        assert by_path(diags, "faults/unknown-crash-point") == [
            "/faults/B/at_point"
        ]

    @pytest.mark.parametrize("topology", [
        triangle(),
        random_strongly_connected(9, 0.3, rng=Random(4)),
        MultiDigraph(["A", "B", "C"], [("A", "B", 0), ("A", "B", 3), ("B", "C", 0),
                                       ("C", "A", 1), ("B", "A", 0)]),
    ])
    def test_decoded_topology_is_the_constructed_one(self, topology):
        # The decoder checks once and builds without the constructor's
        # checks; what it builds must be what the constructor builds.
        decoded = Scenario.from_dict(Scenario(topology=topology).to_dict()).topology
        assert type(decoded) is type(topology) and decoded == topology
        assert decoded.vertices == topology.vertices and decoded.arcs == topology.arcs
        simple = getattr(topology, "underlying_simple", lambda: topology)()
        decoded_simple = getattr(decoded, "underlying_simple", lambda: decoded)()
        assert decoded_simple.arcs == simple.arcs
        for v in simple.vertices:
            assert decoded_simple.out_neighbors(v) == simple.out_neighbors(v)
            assert decoded_simple.in_neighbors(v) == simple.in_neighbors(v)

    def test_error_free_payload_always_constructs(self):
        # The module contract: no error-severity diagnostics implies
        # Scenario.from_dict succeeds.
        candidates = [
            payload(),
            payload(leaders=["A"]),
            payload(chain_delays={"A->B": 100}),
            payload(reaction_fraction=0.7, action_fraction=0.6),  # warning only
            payload(faults={"A": {"at_point": CrashPoint.BEFORE_PHASE_TWO.value}}),
        ]
        for data in candidates:
            assert not has_errors(check_submission(data))
            Scenario.from_dict(dict(data))


class TestScenarioDiagnostics:
    def test_non_strongly_connected_digraph(self):
        sc = Scenario(Digraph(["A", "B", "C"], [("A", "B"), ("B", "C")]))
        assert "digraph/not-strongly-connected" in codes(check_scenario(sc))

    def test_non_strongly_connected_multigraph(self):
        topology = MultiDigraph(
            ["A", "B"], [("A", "B", 0), ("A", "B", 1)]
        )
        diags = check_scenario(Scenario(topology))
        assert "digraph/not-strongly-connected" in codes(diags)
        assert "topology/parallel-arcs" in codes(diags)

    def test_empty_explicit_leader_set(self):
        diags = check_scenario(Scenario(triangle(), leaders=()))
        assert "leaders/empty" in codes(diags)

    def test_non_fvs_leader_set(self):
        # P01 alone leaves the 4-cycle P00→…→P03→P00 un-broken? No —
        # any one vertex of a single cycle is an FVS; use two disjoint
        # cycles sharing nothing with the chosen leader instead.
        d = Digraph(
            ["A", "B", "C", "D"],
            [("A", "B"), ("B", "A"), ("C", "D"), ("D", "C"),
             ("B", "C"), ("C", "B")],
        )
        diags = check_scenario(Scenario(d, leaders=("A",)))
        assert "leaders/not-feedback-vertex-set" in codes(diags)

    def test_diam_underestimate_warns(self):
        diags = check_scenario(Scenario(cycle_digraph(5), diam_override=1))
        assert "timing/diam-underestimate" in codes(diags)
        assert not has_errors(diags)

    def test_broadcast_delay_without_broadcast_mode_warns(self):
        sc = Scenario(triangle(), chain_delays={"broadcast": 10})
        diags = check_scenario(sc)
        assert "chain-delays/broadcast-unused" in codes(diags)
        assert not has_errors(diags)

    def test_conforming_scenario_is_clean(self):
        assert check_scenario(Scenario(triangle())) == ()

    @pytest.mark.parametrize(
        "field, value, code",
        [
            ("diam_override", 0, "timing/bad-diam"),
            ("diam_override", -1, "timing/bad-diam"),
            ("delta", 0, "timing/bad-delta"),
            ("delta", -3, "timing/bad-delta"),
            ("start_time", -5, "timing/bad-start"),
            ("timeout_slack", -1, "timing/bad-slack"),
        ],
    )
    def test_out_of_range_scalar_is_invalid_on_every_path(self, field, value, code):
        # The engines refuse these values, so the analyzer must not
        # certify (or crash on) them: the fast path then simulates and
        # records the engine's own failure, as a plain sweep does.
        scenario = Scenario(triangle(), **{field: value})
        analysis = analyze_scenario(scenario)
        assert analysis.verdict == "invalid"
        assert by_path(analysis.diagnostics, code) == [f"/{field}"]
        entries = []
        for fast_path in (False, True):
            report = run_sweep(Sweep("bad").add("herlihy", scenario), fast_path=fast_path)
            assert report.reports == []
            (failure,) = report.failures
            entries.append((failure.error_type, failure.message))
        assert entries[0] == entries[1]


class TestCoverageTaxonomy:
    def test_conforming_run_is_full_coverage_all_deal(self):
        analysis = analyze_scenario(Scenario(triangle()))
        assert analysis.coverage == COVERAGE_FULL
        assert analysis.verdict == "all-deal"
        assert analysis.ok()
        assert analysis.prediction is not None

    def test_scenario_analyze_is_the_same_entry_point(self):
        analysis = Scenario(triangle()).analyze()
        assert analysis.coverage == COVERAGE_FULL
        assert analysis.verdict in VERDICTS

    def test_structural_errors_give_invalid(self):
        sc = Scenario(Digraph(["A", "B", "C"], [("A", "B"), ("B", "C")]))
        analysis = analyze_scenario(sc)
        assert analysis.coverage == COVERAGE_NONE
        assert analysis.verdict == "invalid"
        assert analysis.prediction is None
        assert not analysis.ok()

    def test_phase_crash_only_gives_verdict_coverage(self):
        sc = Scenario(
            triangle(),
            faults=FaultPlan().crash(
                "Carol", at_point=CrashPoint.BEFORE_PHASE_TWO
            ),
        )
        analysis = analyze_scenario(sc)
        assert analysis.coverage == COVERAGE_VERDICT
        assert analysis.verdict == "not-all-deal"
        assert analysis.prediction is None
        assert analysis.ok()

    def test_timed_crash_is_unsupported(self):
        sc = Scenario(triangle(), faults=FaultPlan().crash("Bob", at_time=500))
        analysis = analyze_scenario(sc)
        assert analysis.coverage == COVERAGE_NONE
        assert analysis.verdict == "unsupported"

    def test_non_default_timing_is_unsupported(self):
        sc = Scenario(triangle(), timing={"kind": "jittered", "min_fraction": 0.1})
        analysis = analyze_scenario(sc)
        assert analysis.coverage == COVERAGE_NONE
        assert analysis.verdict == "unsupported"

    def test_deviating_strategies_are_unsupported(self):
        sc = Scenario(triangle(), strategies={"Bob": "withhold-secret"})
        analysis = analyze_scenario(sc)
        assert analysis.coverage == COVERAGE_NONE
        assert analysis.verdict == "unsupported"

    def test_unvalidated_engine_is_unsupported(self):
        assert "naive-timelock" not in PREDICTABLE_ENGINES
        analysis = analyze_scenario(Scenario(triangle()), engine="naive-timelock")
        assert analysis.coverage == COVERAGE_NONE
        assert analysis.verdict == "unsupported"

    def test_parallel_arcs_under_simple_engine_is_invalid(self):
        topology = MultiDigraph(
            ["A", "B"],
            [("A", "B", 0), ("A", "B", 1), ("B", "A", 0)],
        )
        analysis = analyze_scenario(Scenario(topology), engine="herlihy")
        assert analysis.verdict == "invalid"
        assert "engine/parallel-arcs" in codes(analysis.diagnostics)

    def test_deadline_at_risk_declines_to_certify(self):
        # r + a = 0.9Δ on a tiny Δ pushes predicted unlocks past ladder
        # floors; the analyzer refuses to certify all-deal (and the
        # parity suite shows the engine really does refund here).
        sc = Scenario(
            triangle(), delta=50, reaction_fraction=0.4, action_fraction=0.5
        )
        analysis = analyze_scenario(sc)
        assert analysis.coverage == COVERAGE_NONE
        assert analysis.verdict == "unsupported"
        assert analysis.prediction is not None
        assert not analysis.prediction.deadline_feasible
        assert "predict/deadline-at-risk" in codes(analysis.diagnostics)

    def test_to_dict_is_json_shaped(self):
        doc = analyze_scenario(Scenario(triangle())).to_dict()
        assert doc["coverage"] == COVERAGE_FULL and doc["ok"] is True
        assert isinstance(doc["prediction"]["deadline_ladder"], dict)
        assert all(isinstance(k, str)
                   for k in doc["prediction"]["deadline_ladder"])


class TestPredictionShape:
    def test_triangle_profile_structure(self):
        prediction, advisories = predict(Scenario(triangle()))
        assert advisories == ()
        d = Scenario(triangle()).digraph()
        assert prediction.diam == 2
        assert len(prediction.leaders) == 1
        # Ladder: one rung per 0..diam, spaced exactly Δ apart.
        assert sorted(prediction.deadline_ladder) == list(
            range(prediction.diam + 1)
        )
        rungs = [prediction.deadline_ladder[i]
                 for i in range(prediction.diam + 1)]
        assert all(b - a == prediction.delta
                   for a, b in zip(rungs, rungs[1:]))
        assert prediction.escrow_count == d.arc_count()
        assert prediction.unlock_calls == d.arc_count() * len(prediction.leaders)
        counts = prediction.milestone_counts
        assert counts["contract-escrowed"] == d.arc_count()
        assert counts["secret-released"] == prediction.unlock_calls
        assert prediction.completion_time <= prediction.phase_two_bound
        assert prediction.completion_in_delta() > 0

    def test_publish_times_respect_leader_first_order(self):
        prediction, _ = predict(Scenario(cycle_digraph(4)))
        (leader,) = prediction.leaders
        leader_publish = prediction.publish_times[leader]
        assert all(
            t > leader_publish
            for v, t in prediction.publish_times.items()
            if v != leader
        )


class TestCheckSubmission:
    def test_payload_errors_short_circuit(self):
        diags = check_submission({"nonsense": True})
        assert "payload/unknown-field" in codes(diags)
        assert "topology/missing" in codes(diags)

    def test_graph_level_problems_surface_after_shape_passes(self):
        data = payload(topology={"vertices": ["A", "B"], "arcs": [["A", "B"]]})
        diags = check_submission(data)
        assert "digraph/not-strongly-connected" in codes(diags)

    def test_clean_submission_has_no_diagnostics(self):
        assert check_submission(payload()) == ()
