"""The execution-session lifecycle: Engine.open(), milestones, probes,
interventions, and the adaptive-stragglers timing model.

The contract under test (ISSUE 5 acceptance):

* milestone ordering is deterministic under a fixed seed;
* probes are read-only (mutating the view raises);
* ``run_until`` + ``run_to_completion`` equals one-shot ``run()``
  byte-for-byte on uniform timing (modulo wall-clock, which is a
  measurement, not a result);
* ``chain_delays`` round-trips, hashes only when non-default, and is
  honoured by the harness;
* ``Engine.execute()`` no longer exists (the 1.5 deprecation shim was
  removed in 1.6.0); ``abort()`` cancels a session cleanly at any
  lifecycle point.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from ledger_reference import corpus_sweep

from repro.api import (
    MILESTONE_KINDS,
    Milestone,
    Scenario,
    get_engine,
    list_engines,
    run_key,
    run_sweep,
)
from repro.api.engine import Engine
from repro.api.sweep import SweepProgress
from repro.core.protocol import run_swap
from repro.digraph.generators import cycle_digraph, triangle, wheel_digraph
from repro.errors import (
    ExecutionError,
    ReproError,
    ScenarioError,
    SimulationError,
    TimingError,
)
from repro.sim.milestones import (
    CONTRACT_ESCROWED,
    PHASE1_START,
    PHASE2_COMPLETE,
    SECRET_RELEASED,
    SETTLED,
)
from repro.sim.timing import AdaptiveStragglerTiming, StragglerTiming


def _comparable(report) -> dict:
    data = report.to_dict()
    data.pop("wall_seconds")  # measurement, not a result
    data.get("extra", {}).pop("path", None)  # provenance, not a result
    return data


# ---------------------------------------------------------------------------
# lifecycle equivalence
# ---------------------------------------------------------------------------


class TestSessionEqualsOneShot:
    @pytest.mark.parametrize("engine_name", sorted(list_engines()))
    def test_run_until_then_completion_equals_run(self, engine_name):
        """Pausing at a milestone must not change the result."""
        scenario = Scenario(topology=cycle_digraph(4), seed=7)
        one_shot = get_engine(engine_name).run(scenario)
        session = get_engine(engine_name).open(
            Scenario(topology=cycle_digraph(4), seed=7)
        )
        session.run_until(SECRET_RELEASED)  # None for secret-free engines
        paused = session.run_to_completion()
        assert _comparable(paused) == _comparable(one_shot)

    def test_single_stepping_equals_run(self):
        scenario = Scenario(topology=triangle(), seed=3)
        one_shot = get_engine("herlihy").run(scenario)
        session = get_engine("herlihy").open(Scenario(topology=triangle(), seed=3))
        while not session.quiesced:
            session.step()
        assert _comparable(session.run_to_completion()) == _comparable(one_shot)
        assert session.events_fired == one_shot.events_fired

    @pytest.mark.parametrize("engine_name", sorted(list_engines()) + ["adaptive"])
    def test_advancing_equals_stepping(self, engine_name):
        """``advance()`` pauses after the same events ``step()`` does:
        equal milestones, probe views, event counts and report bytes, on
        every engine's corpus items and on an adaptive-stragglers run
        with a probe and an intervention."""
        if engine_name == "adaptive":
            engine_name, intervene = "herlihy", True
            scenarios = [
                Scenario(
                    topology=topology, seed=7,
                    timing={"kind": "adaptive-stragglers", "violation": 2.0},
                )
                for topology in (cycle_digraph(4), wheel_digraph(4))
            ]
        else:
            intervene = False
            scenarios = [s for name, s in corpus_sweep().items() if name == engine_name]

        def slow_one(execution, milestone):
            party = execution.harness.parties[milestone.party]
            party.profile = dataclasses.replace(
                party.profile, reaction_delay=2 * execution.harness.delta
            )

        def driven(scenario, advancing):
            session = get_engine(engine_name).open(scenario)
            views: list = []
            session.add_probe(lambda m, view: views.append(
                (m, view.now, view.events_fired, view.pending_events,
                 dict(view.milestone_counts))
            ))
            if intervene:
                session.intervene(CONTRACT_ESCROWED, slow_one)
            seen: list[Milestone] = []
            while not session.quiesced:
                seen.extend(session.advance() if advancing else session.step())
            report = json.dumps(_comparable(session.run_to_completion()), sort_keys=True)
            return seen, views, session.events_fired, report

        compared = 0
        for scenario in scenarios:
            try:
                stepped = driven(scenario, advancing=False)
            except ReproError:
                continue
            assert driven(scenario, advancing=True) == stepped, scenario.name
            assert stepped[0][-1].kind == SETTLED
            compared += 1
        assert compared > 0

    def test_uniform_run_key_unchanged_by_session_fields(self):
        """The 1.5 fields (chain_delays, session machinery) must not
        perturb historical run keys — warm stores stay warm."""
        scenario = Scenario(topology=triangle(), seed=7)
        assert (
            run_key("herlihy", scenario)
            == run_key("herlihy", Scenario(topology=triangle(), seed=7, chain_delays={}))
        )
        assert "chain_delays" not in scenario.to_dict()
        assert "chain_delays" not in scenario.canonical_dict()

    def test_run_to_completion_idempotent(self):
        session = get_engine("herlihy").open(Scenario(topology=triangle()))
        assert session.run_to_completion() is session.run_to_completion()
        with pytest.raises(ExecutionError, match="finalised"):
            session.step()

    def test_session_runs_once(self):
        engine = get_engine("herlihy")
        session = engine.open(Scenario(topology=triangle()))
        session.run_to_completion()
        with pytest.raises(SimulationError, match="runs once"):
            session.harness.begin(0)


# ---------------------------------------------------------------------------
# milestones
# ---------------------------------------------------------------------------


class TestMilestones:
    def test_deterministic_under_fixed_seed(self):
        def milestones():
            session = get_engine("herlihy").open(
                Scenario(topology=wheel_digraph(4), seed=11)
            )
            session.run_to_completion()
            return session.milestones

        assert milestones() == milestones()

    def test_stepped_and_wholesale_sequences_agree(self):
        scenario = Scenario(topology=cycle_digraph(4), seed=7)
        wholesale = get_engine("herlihy").open(scenario)
        wholesale.run_to_completion()
        stepped = get_engine("herlihy").open(scenario)
        seen: list[Milestone] = []
        while not stepped.quiesced:
            seen.extend(stepped.step())
        assert tuple(seen) == wholesale.milestones

    def test_phase_ordering(self):
        session = get_engine("herlihy").open(Scenario(topology=triangle(), seed=7))
        report = session.run_to_completion()
        kinds = [m.kind for m in report.milestones]
        assert kinds[0] == PHASE1_START
        assert kinds[-1] == SETTLED
        assert kinds.count(PHASE1_START) == 1
        assert kinds.count(PHASE2_COMPLETE) == 1
        assert kinds.count(SETTLED) == 1
        # Every escrow precedes every secret release on a conforming run.
        assert max(
            i for i, k in enumerate(kinds) if k == CONTRACT_ESCROWED
        ) < min(i for i, k in enumerate(kinds) if k == SECRET_RELEASED)
        # Indices are dense and milestones time-ordered.
        assert [m.index for m in report.milestones] == list(range(len(kinds)))
        times = [m.time for m in report.milestones]
        assert times == sorted(times)

    def test_counts_match_topology(self):
        session = get_engine("herlihy").open(Scenario(topology=triangle(), seed=7))
        session.run_to_completion()
        counts = session.milestone_counts()
        assert counts[CONTRACT_ESCROWED] == 3  # one per arc
        assert counts[SECRET_RELEASED] >= 3
        assert counts[SETTLED] == 1

    def test_run_until_pauses_mid_run(self):
        session = get_engine("herlihy").open(Scenario(topology=triangle(), seed=7))
        milestone = session.run_until(CONTRACT_ESCROWED)
        assert milestone is not None and milestone.arc is not None
        assert not session.quiesced
        assert session.milestone_counts().get(SECRET_RELEASED) is None

    def test_run_until_party_filter(self):
        session = get_engine("herlihy").open(Scenario(topology=triangle(), seed=7))
        hit = session.run_until(CONTRACT_ESCROWED, party="Carol")
        assert hit is not None and hit.party == "Carol"

    def test_run_until_miss_returns_none(self):
        session = get_engine("sequential-trust").open(
            Scenario(topology=triangle(), seed=7)
        )
        assert session.run_until(SECRET_RELEASED) is None
        assert session.quiesced

    def test_unknown_kind_rejected(self):
        session = get_engine("herlihy").open(Scenario(topology=triangle()))
        with pytest.raises(SimulationError, match="vocabulary"):
            session.run_until("phase3-start")
        assert set(MILESTONE_KINDS) == {
            PHASE1_START, CONTRACT_ESCROWED, SECRET_RELEASED,
            PHASE2_COMPLETE, SETTLED,
        }

    def test_report_milestones_not_serialized(self):
        report = get_engine("herlihy").run(Scenario(topology=triangle()))
        assert report.milestones
        assert "milestones" not in report.to_dict()
        assert type(report).from_dict(report.to_dict()).milestone_counts() is None


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


class TestProbes:
    def test_probe_sees_milestones(self):
        session = get_engine("herlihy").open(Scenario(topology=triangle(), seed=7))
        seen = []

        def watch(milestone, view):
            # The view corresponds to *this* milestone, even when one
            # scheduler event produced a batch of them.
            assert view.last_milestone is milestone
            assert view.milestone_counts[milestone.kind] >= 1
            assert sum(view.milestone_counts.values()) == milestone.index + 1
            seen.append((milestone.kind, view.now))

        session.add_probe(watch)
        report = session.run_to_completion()
        assert [kind for kind, _ in seen] == [m.kind for m in report.milestones]

    def test_probe_view_is_read_only(self):
        session = get_engine("herlihy").open(Scenario(topology=triangle(), seed=7))

        def mutate(milestone, view):
            with pytest.raises(dataclasses.FrozenInstanceError):
                view.now = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                milestone.kind = "settled"
            with pytest.raises(TypeError):
                view.milestone_counts["hacked"] = 1

        session.add_probe(mutate, kinds=CONTRACT_ESCROWED)
        report = session.run_to_completion()
        assert "hacked" not in report.milestone_counts()

    def test_probed_run_equals_unprobed(self):
        """Instrumentation forces per-event stepping; results must not move."""
        plain = get_engine("herlihy").run(Scenario(topology=cycle_digraph(4), seed=7))
        session = get_engine("herlihy").open(
            Scenario(topology=cycle_digraph(4), seed=7)
        )
        session.add_probe(lambda m, view: None)
        assert _comparable(session.run_to_completion()) == _comparable(plain)

    def test_probe_after_begin_rejected(self):
        session = get_engine("herlihy").open(Scenario(topology=triangle()))
        session.step()
        with pytest.raises(ExecutionError, match="before the execution begins"):
            session.add_probe(lambda m, view: None)
        with pytest.raises(ExecutionError, match="before the execution begins"):
            session.intervene(SETTLED, lambda ex, m: None)


# ---------------------------------------------------------------------------
# interventions + adaptive stragglers
# ---------------------------------------------------------------------------


class TestInterventions:
    def test_intervention_fires_once_at_milestone(self):
        session = get_engine("herlihy").open(Scenario(topology=triangle(), seed=7))
        fired = []
        session.intervene(
            SECRET_RELEASED, lambda ex, m: fired.append(m.kind), once=True
        )
        session.run_to_completion()
        assert fired == [SECRET_RELEASED]

    def test_intervention_can_slow_a_party(self):
        """A hand-rolled slow-at-secret-released intervention breaks
        all-Deal on a scenario uniform timing completes."""
        scenario = Scenario(topology=cycle_digraph(4), seed=7)
        assert get_engine("herlihy").run(scenario).all_deal()

        session = get_engine("herlihy").open(scenario)
        from repro.sim.process import ReactionProfile

        def slam(execution, milestone):
            for party in execution.harness.parties.values():
                party.profile = ReactionProfile(
                    reaction_delay=3 * execution.harness.delta, action_delay=0
                )

        session.intervene(SECRET_RELEASED, slam)
        assert not session.run_to_completion().all_deal()

    def test_adaptive_stragglers_runs_via_engine(self):
        scenario = Scenario(
            topology=cycle_digraph(4), seed=7,
            timing={"kind": "adaptive-stragglers", "violation": 2.0},
        )
        report = get_engine("herlihy").run(scenario)
        assert report.milestone_counts()[SETTLED] == 1

    def test_adaptive_stragglers_refuses_legacy_runner(self):
        with pytest.raises(TimingError, match="execution-session API"):
            run_swap(
                triangle(), timing="adaptive-stragglers"
            )

    def test_adaptive_more_damaging_than_static_at_same_budget(self):
        """The acceptance-criterion head-to-head, pinned to the clique
        configuration bench E26 maps: same violation budget, adaptive
        strictly lower all-Deal rate."""
        from repro.digraph.generators import complete_digraph

        def rate(kind):
            deals = 0
            for seed in range(4):
                report = get_engine("herlihy").run(
                    Scenario(
                        topology=complete_digraph(4), seed=seed,
                        timing={"kind": kind, "violation": 2.0},
                    )
                )
                deals += report.all_deal()
            return deals
        assert rate("adaptive-stragglers") < rate("stragglers")

    def test_adaptive_params_round_trip_and_hash(self):
        model = AdaptiveStragglerTiming(violation=2.0, at=CONTRACT_ESCROWED)
        spec = model.to_dict()
        assert spec["kind"] == "adaptive-stragglers" and spec["at"] == CONTRACT_ESCROWED
        scenario = Scenario(topology=triangle(), timing=spec)
        assert Scenario.from_dict(scenario.to_dict()).timing == scenario.timing
        uniform = Scenario(topology=triangle())
        assert run_key("herlihy", scenario) != run_key("herlihy", uniform)

    def test_adaptive_rejects_settled_trigger(self):
        with pytest.raises(TimingError, match="cannot trigger"):
            AdaptiveStragglerTiming(at=SETTLED)

    def test_adaptive_shares_straggler_choice_with_static(self):
        vertices = [f"P{i}" for i in range(6)]
        assert (
            AdaptiveStragglerTiming(count=2).straggler_set(vertices, 7)
            == StragglerTiming(count=2).straggler_set(vertices, 7)
        )


# ---------------------------------------------------------------------------
# chain delays (the chain-side Δ)
# ---------------------------------------------------------------------------


class TestChainDelays:
    def test_round_trip_and_canonical(self):
        scenario = Scenario(
            topology=triangle(), seed=7, chain_delays={"Alice->Bob": 250}
        )
        again = Scenario.from_dict(scenario.to_dict())
        assert again.chain_delays == {"Alice->Bob": 250}
        assert again.canonical_text() == scenario.canonical_text()
        assert "chain_delays" in scenario.canonical_dict()

    def test_non_default_changes_run_key(self):
        base = Scenario(topology=triangle(), seed=7)
        delayed = base.with_(chain_delays={"Alice->Bob": 250})
        assert run_key("herlihy", base) != run_key("herlihy", delayed)

    def test_slow_chain_delays_completion(self):
        # 100 ticks of confirmation lag keeps the effective round trip
        # (0.45Δ + 0.1Δ) under the diam-2 liveness boundary of 2Δ/3
        # (bench E20), so the swap still completes — just later.
        base = Scenario(topology=triangle(), seed=7)
        slow = base.with_(
            chain_delays={a: 100 for a in ("Alice->Bob", "Bob->Carol", "Carol->Alice")}
        )
        fast = get_engine("herlihy").run(base)
        lagged = get_engine("herlihy").run(slow)
        assert lagged.completion_time > fast.completion_time
        assert lagged.all_deal()  # lag within slack: liveness intact

    def test_chain_delay_past_boundary_costs_liveness_not_safety(self):
        base = Scenario(topology=triangle(), seed=7)
        swamped = base.with_(
            chain_delays={a: 400 for a in ("Alice->Bob", "Bob->Carol", "Carol->Alice")}
        )
        report = get_engine("herlihy").run(swamped)
        assert not report.all_deal()
        assert report.conforming_acceptable()

    def test_every_engine_honours_chain_delays(self):
        for name in list_engines():
            base = Scenario(topology=cycle_digraph(4), seed=7)
            slow = base.with_(
                chain_delays={"P00->P01": 600}
            )
            assert (
                get_engine(name).run(slow).completion_time
                >= get_engine(name).run(base).completion_time
            ), name

    def test_bad_values_rejected(self):
        with pytest.raises(ScenarioError, match="not an arc label"):
            Scenario(topology=triangle(), chain_delays={"nope": 1})
        with pytest.raises(ScenarioError, match="non-negative"):
            Scenario(topology=triangle(), chain_delays={"Alice->Bob": -1})
        # Arc typos fail at construction (before any sweep executes).
        with pytest.raises(ScenarioError, match="names no arc"):
            Scenario(topology=triangle(), chain_delays={"X->Y": 1})


# ---------------------------------------------------------------------------
# deprecation shim + engine contract
# ---------------------------------------------------------------------------


class TestEngineContract:
    def test_execute_shim_is_gone(self):
        """The 1.5 DeprecationWarning shim was removed on schedule."""
        assert not hasattr(Engine, "execute")
        report = get_engine("herlihy").run(Scenario(topology=triangle()))
        assert report.all_deal()
        assert report.raw.all_deal()  # native result still reachable

    def test_prepare_less_engine_is_rejected(self):
        class LegacyEngine(Engine):
            name = "legacy-test"

        with pytest.raises(TypeError, match="abstract method.*prepare"):
            LegacyEngine()


# ---------------------------------------------------------------------------
# abort semantics
# ---------------------------------------------------------------------------


class TestAbort:
    def test_abort_mid_run_finalises_with_stuck_state(self):
        """Aborting after Phase One classifies the frozen chain state."""
        session = get_engine("herlihy").open(Scenario(topology=triangle(), seed=7))
        session.run_until(CONTRACT_ESCROWED)
        assert session.harness.scheduler.pending() > 0
        report = session.abort("test eviction")
        assert session.aborted and session.finalised
        assert report.extra["aborted"]["reason"] == "test eviction"
        assert report.extra["aborted"]["events_cancelled"] > 0
        # The run was cut off mid-protocol: it cannot be all-Deal, and
        # the escrowed-but-unresolved contracts surface as stuck.
        assert not report.all_deal()
        assert report.stuck_in_escrow
        # The milestone trace is finalised: `settled` is terminal.
        assert report.milestones[-1].kind == SETTLED
        assert session.harness.scheduler.pending() == 0

    def test_abort_is_idempotent(self):
        session = get_engine("herlihy").open(Scenario(topology=triangle(), seed=7))
        session.run_until(CONTRACT_ESCROWED)
        first = session.abort("once")
        second = session.abort("twice")
        assert first is second
        assert first.extra["aborted"]["reason"] == "once"

    def test_abort_before_first_step(self):
        """A prepared-but-never-driven session aborts cleanly."""
        session = get_engine("herlihy").open(Scenario(topology=triangle(), seed=7))
        report = session.abort()
        assert session.aborted
        assert report.events_fired == 0
        assert not report.triggered
        assert report.milestones[-1].kind == SETTLED

    def test_abort_after_completion_is_a_noop(self):
        session = get_engine("herlihy").open(Scenario(topology=triangle(), seed=7))
        completed = session.run_to_completion()
        assert session.abort() is completed
        assert not session.aborted
        assert "aborted" not in completed.extra

    def test_stepping_an_aborted_session_raises(self):
        session = get_engine("herlihy").open(Scenario(topology=triangle(), seed=7))
        session.step()
        session.abort()
        with pytest.raises(ExecutionError, match="finalised"):
            session.step()
        with pytest.raises(ExecutionError, match="finalised"):
            session.run_until(SETTLED)
        # run_to_completion stays idempotent: it returns the abort report.
        assert session.run_to_completion() is session.abort()

    def test_abort_timeout_style_eviction_preserves_thm49_accounting(self):
        """An aborted run still carries coherent per-party outcomes —
        what the serving layer reports for an evicted job."""
        session = get_engine("herlihy").open(
            Scenario(topology=cycle_digraph(4), seed=11)
        )
        session.run_until(SECRET_RELEASED)
        report = session.abort("deadline exceeded")
        assert set(report.outcomes) == set(
            cycle_digraph(4).vertices
        )


# ---------------------------------------------------------------------------
# sweep streaming
# ---------------------------------------------------------------------------


class TestSweepProgress:
    def test_serial_progress_ticks_with_milestones(self):
        items = [
            ("herlihy", Scenario(topology=triangle(), seed=s, name=f"p{s}"))
            for s in range(3)
        ]
        ticks: list[SweepProgress] = []
        report = run_sweep(items, parallel=False, progress=ticks.append)
        assert len(report.reports) == 3
        assert [t.completed for t in ticks] == [1, 2, 3]
        assert all(t.total == 3 and t.fresh == 1 for t in ticks)
        assert all(t.milestones.get(SETTLED) == 1 for t in ticks)

    def test_warm_store_emits_cached_tick(self):
        from repro.lab.store import SqliteStore

        items = [("herlihy", Scenario(topology=triangle(), seed=5, name="warm"))]
        store = SqliteStore(":memory:")
        run_sweep(items, parallel=False, store=store)
        ticks: list[SweepProgress] = []
        report = run_sweep(items, parallel=False, store=store, progress=ticks.append)
        assert report.cached == 1 and report.executed == 0
        assert ticks and ticks[0].cached == 1 and ticks[0].fresh == 0

    def test_milestone_counts_persisted_beside_report(self):
        from repro.lab.store import SqliteStore

        store = SqliteStore(":memory:")
        items = [("herlihy", Scenario(topology=triangle(), seed=9, name="ms"))]
        run_sweep(items, parallel=False, store=store)
        (key, entry), = store.entries()
        assert entry["ok"]
        assert entry["milestones"][CONTRACT_ESCROWED] == 3
        assert "milestones" not in entry["report"]


# ---------------------------------------------------------------------------
# lab bisect
# ---------------------------------------------------------------------------


class TestBisect:
    def test_bisect_brackets_the_clique_boundary(self):
        from repro.lab.bisect import bisect_all_deal_boundary

        result = bisect_all_deal_boundary(
            "clique", seeds=(0, 1), lo=1.05, hi=4.0, iters=5
        )
        assert result.holds_at_lo and result.fails_at_hi
        assert 1.05 <= result.holds_until < result.breaks_from <= 4.0
        assert result.holds_until < result.boundary < result.breaks_from
        assert result.evaluations <= (5 + 2) * 2
        payload = result.to_dict()
        assert payload["knob"] == "violation"

    def test_bisect_degenerate_endpoints(self):
        from repro.lab.bisect import bisect_all_deal_boundary

        still_holds = bisect_all_deal_boundary(
            "clique", seeds=(0,), lo=1.01, hi=1.02, iters=1
        )
        assert not still_holds.fails_at_hi
        assert not still_holds.bracketed
        assert still_holds.boundary is None
        assert still_holds.to_dict()["boundary"] is None
        # cycle n=3 is already broken at any violation > 1: the lo
        # endpoint decides, hi is never probed, and no boundary is
        # fabricated.
        broken = bisect_all_deal_boundary(
            "cycle", seeds=(0,), lo=1.05, hi=4.0, iters=1
        )
        assert not broken.holds_at_lo and not broken.fails_at_hi
        assert broken.boundary is None

    def test_bisect_rejects_unknown_knob_and_families(self):
        from repro.lab.bisect import bisect_all_deal_boundary

        with pytest.raises(Exception, match="not bisectable"):
            bisect_all_deal_boundary("cycle", knob="count")
        with pytest.raises(Exception, match="strongly connected"):
            bisect_all_deal_boundary("chain")

    def test_bisect_cli_table_and_json(self, capsys):
        from repro.lab.cli import main as lab_main

        assert lab_main([
            "bisect", "--family", "clique", "--seeds", "1",
            "--iters", "3", "--hi", "4.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "violation boundary" in out and "clique" in out

        assert lab_main([
            "bisect", "--family", "clique", "--seeds", "1",
            "--iters", "2", "--hi", "4.0", "--json",
        ]) == 0
        import json as _json

        payload = _json.loads(capsys.readouterr().out)
        assert payload["knob"] == "violation"
        assert payload["results"][0]["family"] == "clique"

    def test_bisect_cli_rejects_swept_grid(self, capsys):
        from repro.lab.cli import main as lab_main

        assert lab_main([
            "bisect", "--family", "clique", "--grid", "n=3,4",
        ]) == 1
        assert "single values" in capsys.readouterr().err
