"""Timing models (`repro.sim.timing`), the shared harness, and their
threading through Scenario, run keys, and every engine.

The back-compat pins matter most: a scenario that never names a timing
model must hash to the exact pre-refactor run key (warm stores stay
warm), and uniform-timing runs must reproduce the seed's reports.
"""

from __future__ import annotations

import pytest

from repro.api import Scenario, get_engine, list_engines
from repro.api.sweep import derive_seed, run_key, smoke_sweep
from repro.core.protocol import SwapConfig, run_swap
from repro.digraph.generators import cycle_digraph, triangle, wheel_digraph
from repro.errors import (
    NotStronglyConnectedError,
    ScenarioError,
    SimulationError,
    TimingError,
)
from repro.sim.harness import SimulationHarness
from repro.sim.process import ReactionProfile
from repro.sim.timing import (
    JitteredTiming,
    StragglerTiming,
    UniformTiming,
    is_default_timing,
    resolve_timing,
    timing_to_dict,
)

DELTA = 1000
FRACTIONS = dict(reaction_fraction=0.25, action_fraction=0.20)


# ---------------------------------------------------------------------------
# model resolution and validation
# ---------------------------------------------------------------------------


class TestResolveTiming:
    def test_none_is_uniform(self):
        assert isinstance(resolve_timing(None), UniformTiming)

    def test_name_resolves(self):
        assert isinstance(resolve_timing("jittered"), JitteredTiming)
        assert isinstance(resolve_timing("stragglers"), StragglerTiming)

    def test_dict_with_params(self):
        model = resolve_timing({"kind": "stragglers", "count": 2, "violation": 2.5})
        assert model.count == 2 and model.violation == 2.5

    def test_model_passthrough(self):
        model = JitteredTiming()
        assert resolve_timing(model) is model

    def test_unknown_kind_lists_registered(self):
        with pytest.raises(TimingError, match="uniform"):
            resolve_timing("warp-speed")

    def test_unknown_param_rejected(self):
        with pytest.raises(TimingError, match="does not accept"):
            resolve_timing({"kind": "jittered", "nope": 1})

    def test_dict_without_kind_rejected(self):
        with pytest.raises(TimingError, match="kind"):
            resolve_timing({"count": 2})

    def test_bad_type_rejected(self):
        with pytest.raises(TimingError):
            resolve_timing(42)

    def test_normalization_fills_defaults(self):
        assert timing_to_dict("jittered") == {
            "kind": "jittered", "min_fraction": 0.05,
        }
        assert timing_to_dict(None) is None

    def test_default_detection(self):
        assert is_default_timing(None)
        assert is_default_timing("uniform")
        assert is_default_timing({"kind": "uniform"})
        assert not is_default_timing("jittered")

    def test_straggler_param_validation(self):
        with pytest.raises(TimingError, match="count"):
            StragglerTiming(count=0)
        with pytest.raises(TimingError, match="violation"):
            StragglerTiming(violation=1.0)
        with pytest.raises(TimingError, match="min_fraction"):
            JitteredTiming(min_fraction=1.5)


# ---------------------------------------------------------------------------
# profile draws
# ---------------------------------------------------------------------------


class TestProfileDraws:
    def _profiles(self, model, vertices, seed=7):
        return model.profiles(vertices, delta=DELTA, seed=seed, **FRACTIONS)

    def test_uniform_matches_configured_fractions(self):
        profiles = self._profiles(UniformTiming(), ["A", "B", "C"])
        expected = ReactionProfile.fractions(DELTA, 0.25, 0.20)
        assert all(p == expected for p in profiles.values())

    def test_jittered_is_deterministic_and_conforming(self):
        model = JitteredTiming()
        first = self._profiles(model, ["A", "B", "C"], seed=3)
        second = self._profiles(model, ["A", "B", "C"], seed=3)
        assert first == second
        assert all(p.round_trip <= DELTA for p in first.values())
        assert all(p.is_conforming(DELTA) for p in first.values())

    def test_jittered_differs_across_seeds_and_parties(self):
        model = JitteredTiming()
        a = self._profiles(model, [f"P{i}" for i in range(8)], seed=1)
        b = self._profiles(model, [f"P{i}" for i in range(8)], seed=2)
        assert a != b
        assert len(set(a.values())) > 1  # per-party, not one shared draw

    def test_stragglers_violate_delta_exactly_count(self):
        model = StragglerTiming(count=2)
        vertices = [f"P{i}" for i in range(6)]
        profiles = self._profiles(model, vertices, seed=5)
        violators = {v for v, p in profiles.items() if p.round_trip > DELTA}
        assert violators == model.straggler_set(vertices, seed=5)
        assert len(violators) == 2

    def test_straggler_count_clamps_to_party_count(self):
        model = StragglerTiming(count=10)
        profiles = self._profiles(model, ["A", "B"], seed=5)
        assert all(p.round_trip > DELTA for p in profiles.values())

    def test_explicit_straggler_parties(self):
        model = StragglerTiming(parties=["B"])
        profiles = self._profiles(model, ["A", "B", "C"])
        assert profiles["B"].round_trip > DELTA
        assert profiles["A"].round_trip <= DELTA

    def test_explicit_unknown_party_rejected(self):
        model = StragglerTiming(parties=["Z"])
        with pytest.raises(TimingError, match="unknown parties"):
            self._profiles(model, ["A", "B"])

    def test_round_trip_serialization(self):
        for model in (UniformTiming(), JitteredTiming(0.2),
                      StragglerTiming(2, 2.5), StragglerTiming(parties=["A"])):
            assert resolve_timing(model.to_dict()) == model


# ---------------------------------------------------------------------------
# scenario threading and run-key back-compat
# ---------------------------------------------------------------------------

#: The pre-refactor run key of Scenario(triangle(), name="ref", seed=11)
#: under the herlihy engine.  If this moves, every warm store goes cold.
PINNED_REF_KEY = "f6e5d47a56461ffa40c71601c7a4359fad344c438b8bc496ae83f8281f29e34d"


class TestScenarioTiming:
    def test_omitted_timing_hashes_to_seed_key(self):
        scenario = Scenario(topology=triangle(), name="ref", seed=11)
        assert run_key("herlihy", scenario) == PINNED_REF_KEY

    def test_explicit_uniform_hashes_identically(self):
        for spec in ("uniform", {"kind": "uniform"}):
            scenario = Scenario(
                topology=triangle(), name="ref", seed=11, timing=spec
            )
            assert run_key("herlihy", scenario) == PINNED_REF_KEY

    def test_non_default_timing_changes_the_key(self):
        jittered = Scenario(topology=triangle(), name="ref", seed=11,
                            timing="jittered")
        stragglers = Scenario(topology=triangle(), name="ref", seed=11,
                              timing="stragglers")
        keys = {PINNED_REF_KEY,
                run_key("herlihy", jittered), run_key("herlihy", stragglers)}
        assert len(keys) == 3

    def test_timing_params_participate_in_the_key(self):
        one = Scenario(topology=triangle(), timing={"kind": "stragglers"})
        two = Scenario(topology=triangle(),
                       timing={"kind": "stragglers", "count": 2})
        assert run_key("herlihy", one) != run_key("herlihy", two)

    def test_to_dict_omits_unset_timing(self):
        assert "timing" not in Scenario(topology=triangle()).to_dict()

    def test_json_round_trip(self):
        scenario = Scenario(topology=triangle(), timing="stragglers")
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_old_dict_without_timing_field_parses(self):
        data = Scenario(topology=triangle(), name="old").to_dict()
        assert "timing" not in data
        assert Scenario.from_dict(data).timing is None

    def test_bad_timing_raises_scenario_error(self):
        with pytest.raises(ScenarioError, match="unknown timing kind"):
            Scenario(topology=triangle(), timing="warp-speed")

    def test_timing_model_accessor(self):
        scenario = Scenario(topology=triangle(), timing="jittered")
        assert isinstance(scenario.timing_model(), JitteredTiming)
        assert isinstance(
            Scenario(topology=triangle()).timing_model(), UniformTiming
        )

    def test_config_carries_timing(self):
        scenario = Scenario(topology=triangle(), timing="stragglers")
        assert scenario.config().timing == {
            "kind": "stragglers", "count": 1, "violation": 3.0, "parties": None,
        }


class TestSmokeKeysPinned:
    """The entire smoke grid's run keys, pinned.

    The smoke grid enumerates every *registered* engine, so the pins
    move exactly once per deliberate registry change (index ``#N`` in
    the scenario name is the grid enumeration position, and it feeds
    the seed).  Re-pinned when the ``analytic`` engine joined (every
    label after ``2pc`` shifted by two) and again when it was retired
    (every label after ``2pc`` shifted back by two).  A scenario whose
    name is unchanged must keep its historical key —
    ``test_uniform_run_key_unchanged_by_session_fields`` in
    ``test_execution.py`` guards that invariant independently.
    """

    #: Never re-pinned: ``2pc`` sorts first, so its index never moved.
    HISTORICAL = {
        "2pc:smoke:2pc:tri#0": "83eefa04cf2cea75bade24795414725fda016635c875338e684a57f7be54d549",
    }

    PINNED = {
        **HISTORICAL,
        "herlihy:smoke:herlihy:tri#2": "4450c1f9caea43ae415f6edf6d3b23b35ead1786faea79a052943f28c0d548fc",
        "multiswap:smoke:multiswap:c4#5": "78c8920230a4ec094b494d0c12ad7238b3d7af26a4bb835d18712519ea088028",
        "naive-timelock:smoke:naive-timelock:tri#6": "d66deb0ea9228e7a04186a98cfc496285838afed0a1ee82fb12b5298670fb369",
        "sequential-trust:smoke:sequential-trust:c4#9": "cdd0a68453c61316136f0b8cdf59895cda2129d4ffdaf1bf2a9e4b1433d2652e",
        "single-leader:smoke:single-leader:tri#10": "50830cd3bd2d12644d9f6b973dbbb69ac650650716f1565a27c0ca27fbd9b893",
    }

    def test_smoke_sweep_keys_unchanged(self):
        keys = {
            f"{engine}:{scenario.name}": run_key(engine, scenario)
            for engine, scenario in smoke_sweep().items()
        }
        for label, pinned in self.PINNED.items():
            assert keys[label] == pinned, label

    def test_pins_are_index_shifts_only(self):
        # Each pin is the key of its engine and topology at its grid
        # index, built here without the grid: a re-pin moved the index
        # (and so the derived seed), never the key recipe.
        topologies = {"tri": triangle(), "c4": cycle_digraph(4)}
        base_seed = smoke_sweep().base_seed
        for label, pinned in self.PINNED.items():
            engine, name = label.split(":", 1)
            topology, index = name.rsplit(":", 1)[1].split("#")
            scenario = Scenario(
                topology=topologies[topology],
                name=name,
                seed=derive_seed(base_seed, engine, int(index)),
            )
            assert run_key(engine, scenario) == pinned, label


# ---------------------------------------------------------------------------
# engines × timing
# ---------------------------------------------------------------------------


class TestEnginesHonourTiming:
    @pytest.mark.parametrize("engine_name", list_engines())
    @pytest.mark.parametrize("timing", ["jittered", "stragglers"])
    def test_every_engine_runs_every_model(self, engine_name, timing):
        scenario = Scenario(topology=cycle_digraph(4), seed=3, timing=timing)
        report = get_engine(engine_name).run(scenario)
        assert report.engine == engine_name
        assert report.scenario.timing["kind"] == timing

    @pytest.mark.parametrize("engine_name", list_engines())
    def test_reproducible_from_seed_and_timing(self, engine_name):
        scenario = Scenario(topology=cycle_digraph(4), seed=9,
                            timing="jittered")
        first = get_engine(engine_name).run(scenario).to_dict()
        second = get_engine(engine_name).run(scenario).to_dict()
        first.pop("wall_seconds"), second.pop("wall_seconds")
        assert first == second

    def test_stragglers_break_all_deal_where_uniform_holds(self):
        """The acceptance demonstration: same topology, same seed, the
        only change is the timing model — and the guarantee flips."""
        base = Scenario(topology=cycle_digraph(4), seed=3)
        uniform = get_engine("herlihy").run(base)
        stragglers = get_engine("herlihy").run(base.with_(timing="stragglers"))
        assert uniform.all_deal()
        assert not stragglers.all_deal()

    def test_jittered_preserves_thm49_safety(self):
        """Conforming jitter (round trip ≤ Δ) may cost liveness at the
        strict-deadline boundary but must never produce Underwater."""
        for seed in range(6):
            for topology in (triangle(), cycle_digraph(5), wheel_digraph(4)):
                report = get_engine("herlihy").run(
                    Scenario(topology=topology, seed=seed, timing="jittered")
                )
                assert report.conforming_acceptable(), (seed, topology)

    def test_uniform_timing_report_matches_untimed(self):
        base = Scenario(topology=cycle_digraph(4), seed=3)
        tagged = base.with_(timing="uniform")
        left = get_engine("herlihy").run(base).to_dict()
        right = get_engine("herlihy").run(tagged).to_dict()
        left.pop("wall_seconds"), right.pop("wall_seconds")
        # Identical physical run; only the serialized timing tag differs.
        assert left.pop("scenario")["name"] == right.pop("scenario")["name"]
        assert left == right


# ---------------------------------------------------------------------------
# the harness itself
# ---------------------------------------------------------------------------


class TestSimulationHarness:
    def _harness(self, **kwargs):
        return SimulationHarness(
            cycle_digraph(3), delta=DELTA, seed=7, **FRACTIONS, **kwargs
        )

    def test_rejects_disconnected_with_custom_message(self):
        from repro.digraph.generators import chain_digraph

        with pytest.raises(NotStronglyConnectedError, match="custom msg"):
            SimulationHarness(
                chain_digraph(3), delta=DELTA, **FRACTIONS,
                connectivity_message="custom msg",
            )

    def test_profile_for_unknown_vertex_falls_back_to_base(self):
        harness = self._harness(timing="stragglers")
        assert harness.profile_for("not-a-vertex") == harness.base_profile

    def test_runs_once(self):
        harness = self._harness()
        harness.build_parties(lambda v, p: _InertParty(v, harness, p))
        harness.run_to_quiescence(0)
        with pytest.raises(SimulationError, match="runs once"):
            harness.run_to_quiescence(0)

    def test_swap_config_timing_reaches_run_swap(self):
        config = SwapConfig(timing="stragglers")
        result = run_swap(cycle_digraph(4), config=config)
        slow = [
            party
            for party in result.parties.values()
            if party.profile.round_trip > config.delta
        ]
        assert len(slow) == 1  # default stragglers count


class _InertParty:
    def __init__(self, name, harness, profile):
        self.name = self.address = name
        self.profile = profile
        self.is_halted = False

    def start(self):
        pass
