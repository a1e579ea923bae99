"""The analytic fast path and the plumbing it rides on.

The acceptance bar for :mod:`repro.analysis.engine`: for every scenario
the analyzer certifies with ``coverage="full"``, ``resolve_report`` with
``fast_path`` on must produce the **byte-identical**
``RunReport.to_dict()`` the ``herlihy`` simulator produces — same run
keys, same serialized bytes —
modulo exactly two declared non-deterministic fields (``wall_seconds``
and the ``extra["path"]`` provenance stamp).  For everything else it
must *refuse* the closed form and fall back to the real simulation.

Also covered here: the cached :meth:`Scenario.canonical_text` identity
(satellite of the same PR — run keys build on it), the ``fast_path=``
sweep plumbing, and ``lab check --verify`` executing zero engines on a
warm store.
"""

from __future__ import annotations

import asyncio
from random import Random

import pytest

from repro.analysis.engine import (
    PATH_ANALYTIC,
    PATH_KEY,
    PATH_SIMULATED,
    analyze_for_fast_path,
    resolve_report,
    synthesize_report,
)
from repro.analysis.protocol import COVERAGE_FULL, analyze_scenario
from repro.api.engine import get_engine, list_engines
from repro.api.scenario import Scenario, canonical_json
from repro.api.sweep import Sweep, run_key, run_sweep
from repro.digraph.digraph import Digraph
from repro.digraph.generators import (
    complete_digraph,
    cycle_digraph,
    random_strongly_connected,
    triangle,
)
from repro.lab.registry import get_family, list_families
from repro.lab.store import open_store
from repro.serve.service import ServiceConfig, SwapService
from repro.sim.faults import Crash, CrashPoint, FaultPlan

FAMILIES = sorted(list_families())


def family_scenario(name: str) -> Scenario:
    family = get_family(name)
    return Scenario(family.generate(dict(family.defaults), seed=11))


def comparable(report) -> dict:
    """``to_dict()`` minus the two declared non-deterministic fields."""
    data = report.to_dict()
    data.pop("wall_seconds", None)
    (data.get("extra") or {}).pop(PATH_KEY, None)
    return data


def eligible(analysis) -> bool:
    """Would ``synthesize_run`` synthesize from this analysis?"""
    return analysis.coverage == COVERAGE_FULL and analysis.prediction is not None


def assert_byte_parity(scenario: Scenario) -> None:
    analytic = resolve_report("herlihy", scenario, fast_path=True)
    simulated = get_engine("herlihy").run(scenario)
    assert analytic.extra[PATH_KEY] == PATH_ANALYTIC
    assert comparable(analytic) == comparable(simulated)
    # Same keys: the synthesized report is indistinguishable in the store.
    assert run_key("herlihy", analytic.scenario) == run_key(
        "herlihy", simulated.scenario
    )
    assert analytic.milestone_counts() == simulated.milestone_counts()


# ---------------------------------------------------------------------------
# byte parity: the family matrix and the conforming variants
# ---------------------------------------------------------------------------


class TestByteParity:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_every_fully_covered_family(self, name):
        scenario = family_scenario(name)
        if analyze_scenario(scenario).coverage != COVERAGE_FULL:
            pytest.skip(f"{name} is not fully covered — no closed form")
        assert_byte_parity(scenario)

    @pytest.mark.parametrize("n,p,gseed", [(10, 0.15, 1), (15, 0.12, 2), (20, 0.10, 3)])
    def test_sparse_random_graphs(self, n, p, gseed):
        # Sparse topologies with deep Phase One chains are where the
        # closed form earns its keep: contract publication gates key
        # propagation per arc, and same-tick route ties are broken by
        # scheduler order (the FIFO replay in repro.analysis.predict).
        # Regression for both — dense families never exercise either.
        digraph = random_strongly_connected(n, p, Random(gseed))
        assert_byte_parity(Scenario(digraph, seed=5, exact_limit=12))

    def test_warm_shape_memo_serves_other_seeds(self):
        # The shape memo synthesizes once per *shape*: a later seed must
        # still match its own simulation bit for bit (the memoized
        # template is seed-invariant apart from the scenario block).
        digraph = random_strongly_connected(10, 0.15, Random(1))
        for seed in (21, 22):
            assert_byte_parity(Scenario(digraph, seed=seed, exact_limit=12))

    def test_chain_delays(self):
        assert_byte_parity(
            Scenario(triangle(),
                     chain_delays={"Alice->Bob": 120, "Carol->Alice": 40})
        )

    def test_timeout_slack(self):
        assert_byte_parity(Scenario(triangle(), timeout_slack=2))

    def test_explicit_start_time(self):
        assert_byte_parity(Scenario(triangle(), start_time=777))

    def test_explicit_multi_leader_set(self):
        assert_byte_parity(Scenario(cycle_digraph(5), leaders=("P01", "P03")))

    def test_nondefault_conforming_fractions(self):
        assert_byte_parity(
            Scenario(triangle(), reaction_fraction=0.3, action_fraction=0.35)
        )

    def test_larger_delta(self):
        assert_byte_parity(Scenario(cycle_digraph(4), delta=5000))

    def test_non_ascii_party_names(self):
        # Contracts count their endpoint and asset names as UTF-8 bytes,
        # so "é" is two bytes in contract_storage_bytes, not one.
        scenario = Scenario(
            Digraph(["é", "b", "c"], [("é", "b"), ("b", "c"), ("c", "é")])
        )
        simulated = get_engine("herlihy").run(scenario)
        prediction = analyze_scenario(scenario).prediction
        assert prediction.contract_storage_bytes == simulated.contract_storage_bytes
        assert_byte_parity(scenario)

    def test_synthesized_report_wall_seconds_left_for_caller(self):
        scenario = Scenario(triangle())
        analysis = analyze_scenario(scenario)
        report = synthesize_report(scenario, analysis.prediction)
        assert report.wall_seconds == 0.0
        assert report.extra == {}


# ---------------------------------------------------------------------------
# refusal: everything the analyzer cannot certify falls back
# ---------------------------------------------------------------------------


class TestFallback:
    @pytest.mark.parametrize("timing", ["jittered", "stragglers"])
    def test_nondefault_timing_simulates(self, timing):
        scenario = Scenario(cycle_digraph(4), seed=3, timing=timing)
        report = resolve_report("herlihy", scenario, fast_path=True)
        assert report.extra[PATH_KEY] == PATH_SIMULATED
        # ... and the fallback is byte-identical to herlihy directly.
        assert comparable(report) == comparable(get_engine("herlihy").run(scenario))

    def test_timed_crash_simulates(self):
        scenario = Scenario(
            triangle(), faults=FaultPlan(crashes={"Carol": Crash(at_time=50)})
        )
        report = resolve_report("herlihy", scenario, fast_path=True)
        assert report.extra[PATH_KEY] == PATH_SIMULATED

    def test_phase_crash_simulates(self):
        scenario = Scenario(
            triangle(),
            faults=FaultPlan().crash("Carol", at_point=CrashPoint.BEFORE_PHASE_TWO),
        )
        report = resolve_report("herlihy", scenario, fast_path=True)
        assert report.extra[PATH_KEY] == PATH_SIMULATED
        assert not report.all_deal()

    def test_deviating_strategy_simulates(self):
        scenario = Scenario(triangle(), strategies={"Carol": "last-moment-unlock"})
        report = resolve_report("herlihy", scenario, fast_path=True)
        assert report.extra[PATH_KEY] == PATH_SIMULATED

    def test_infeasible_deadlines_simulate(self):
        scenario = Scenario(
            triangle(), delta=50, reaction_fraction=0.4, action_fraction=0.5
        )
        report = resolve_report("herlihy", scenario, fast_path=True)
        assert report.extra[PATH_KEY] == PATH_SIMULATED
        assert not report.all_deal()

    def test_gate_rejects_other_engines(self):
        # Non-herlihy engines always simulate; we do not even analyze.
        assert analyze_for_fast_path(Scenario(triangle()), "2pc") is None
        assert analyze_for_fast_path(Scenario(triangle()), "multiswap") is None

    def test_gate_accepts_herlihy(self):
        analysis = analyze_for_fast_path(Scenario(triangle()), "herlihy")
        assert analysis is not None and eligible(analysis)

    def test_eligibility_requires_full_coverage(self):
        analysis = analyze_scenario(Scenario(triangle(), timing="jittered"))
        assert not eligible(analysis)


# ---------------------------------------------------------------------------
# signature schemes the simulator refuses are refused by the fast path too
# ---------------------------------------------------------------------------


def stripped(entry: dict) -> dict:
    """A store entry minus the report's wall time and path stamp."""
    if entry["ok"]:
        report = dict(entry["report"])
        report.pop("wall_seconds")
        report["extra"] = {
            k: v for k, v in report["extra"].items() if k != PATH_KEY
        }
        entry = {**entry, "report": report}
    return entry


class TestRefusedSchemes:
    REFUSED = (
        Scenario(complete_digraph(4), scheme_name="lamport", name="refused:lamport"),
        Scenario(triangle(), scheme_name="no-such-scheme", name="refused:unknown"),
    )
    #: Lamport keys sign once, which a single-leader swap allows.
    ALLOWED = Scenario(cycle_digraph(4), scheme_name="lamport", name="allowed:lamport")

    def test_analyzer_flags_the_refusals(self):
        codes = [
            [d.code for d in analyze_scenario(s).diagnostics] for s in self.REFUSED
        ]
        assert codes == [["engine/one-time-scheme"], ["engine/unknown-scheme"]]
        for scenario in self.REFUSED:
            assert analyze_for_fast_path(scenario, "herlihy").coverage != COVERAGE_FULL
        assert eligible(analyze_scenario(self.ALLOWED))

    def test_sweep_records_the_same_entries_either_way(self):
        entries = []
        for fast_path in (False, True):
            sweep = Sweep("schemes")
            for scenario in (*self.REFUSED, self.ALLOWED):
                sweep.add("herlihy", scenario)
            with open_store(":memory:") as store:
                run_sweep(sweep, parallel=False, fast_path=fast_path, store=store)
                entries.append({k: stripped(e) for k, e in store.entries()})
        assert entries[0] == entries[1]
        failures = [e for e in entries[0].values() if not e["ok"]]
        assert [e["error_type"] for e in failures] == ["SignatureError"] * 2

    def test_serve_records_the_same_entries_either_way(self):
        async def entries(fast_path):
            service = SwapService(
                ServiceConfig(rate=0.0, fast_path=fast_path),
                store=open_store(":memory:"),
            )
            await service.start()
            for scenario in (*self.REFUSED, self.ALLOWED):
                result = service.submit(scenario)
                await service.wait(result.key, timeout=30)
            recorded = {k: stripped(e) for k, e in service.store.entries()}
            await service.stop()
            return recorded

        plain, fast = (asyncio.run(entries(flag)) for flag in (False, True))
        assert plain == fast
        assert sorted(e["ok"] for e in plain.values()) == [False, False, True]


# ---------------------------------------------------------------------------
# Scenario.canonical_text: one cached encoding under every key
# ---------------------------------------------------------------------------


class TestCanonicalText:
    def test_identical_string_object_returned(self):
        scenario = Scenario(triangle())
        assert scenario.canonical_text() is scenario.canonical_text()

    def test_matches_uncached_encoding(self):
        scenario = Scenario(cycle_digraph(4), seed=5, timing="jittered")
        assert scenario.canonical_text() == canonical_json(scenario.canonical_dict())

    def test_run_key_matches_from_scratch_composition(self):
        # The textual composition in run_key must reproduce the dict
        # encoding byte for byte — this is what keeps every historical
        # store entry addressable.
        scenario = Scenario(triangle(), chain_delays={"Alice->Bob": 60})
        from repro.api.sweep import RUN_KEY_SCHEMA
        from repro.crypto.hashing import sha256

        payload = canonical_json({
            "schema": RUN_KEY_SCHEMA,
            "engine": "herlihy",
            "scenario": scenario.canonical_dict(),
        })
        assert run_key("herlihy", scenario) == sha256(payload.encode()).hex()

    def test_equal_scenarios_share_keys_not_cache(self):
        a = Scenario(triangle(), name="first")
        b = Scenario(triangle(), name="second")  # display name excluded
        assert a.canonical_text() == b.canonical_text()
        assert run_key("herlihy", a) == run_key("herlihy", b)


# ---------------------------------------------------------------------------
# sweep plumbing: fast_path=, provenance stamps, shared warm stores
# ---------------------------------------------------------------------------


class TestSweepFastPath:
    def sweep(self):
        return (
            Sweep("fp", base_seed=3)
            .add("herlihy", Scenario(triangle(), name="fp:covered", seed=1))
            .add("herlihy",
                 Scenario(triangle(), name="fp:jittered", seed=1,
                          timing="jittered"))
            .add("2pc", Scenario(triangle(), name="fp:2pc", seed=1))
        )

    def test_partition_and_stamps(self):
        report = run_sweep(self.sweep(), parallel=False, fast_path=True)
        assert report.analytic == 1 and report.executed == 2
        paths = [r.extra.get(PATH_KEY) for r in report.reports]
        assert paths == [PATH_ANALYTIC, PATH_SIMULATED, PATH_SIMULATED]

    def test_all_covered_reports_mode_analytic(self):
        sweep = Sweep("fp").add(
            "herlihy", Scenario(triangle(), name="fp:only", seed=1)
        )
        report = run_sweep(sweep, parallel=False, fast_path=True)
        assert report.mode == "analytic"
        assert report.executed == 0 and report.analytic == 1

    def test_plain_sweep_is_unstamped(self):
        report = run_sweep(self.sweep(), parallel=False)
        assert report.analytic == 0
        assert all(PATH_KEY not in r.extra for r in report.reports)

    def test_fast_path_warms_the_same_store(self, tmp_path):
        # Keys ignore the provenance stamp, so a fast-path sweep and a
        # plain sweep share one warm store — in both directions.
        with open_store(str(tmp_path / "runs.sqlite")) as store:
            first = run_sweep(self.sweep(), parallel=False, fast_path=True,
                              store=store)
            assert first.analytic == 1 and first.executed == 2
            second = run_sweep(self.sweep(), parallel=False, store=store)
            assert second.cached == 3 and second.executed == 0
            assert second.mode == "cached"
            assert [comparable(r) for r in first.reports] == [
                comparable(r) for r in second.reports
            ]


# ---------------------------------------------------------------------------
# lab check --verify: a warm store means zero engine executions
# ---------------------------------------------------------------------------


class TestVerifyStoreReuse:
    def test_warm_store_executes_no_engine(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        store_path = str(tmp_path / "runs.sqlite")
        flags = ["--family", "cycle", "--grid", "n=3",
                 "--mix", "all-conforming", "--store", store_path]
        assert main(["lab", "run", *flags, "--serial"]) == 0
        capsys.readouterr()

        def boom(self, scenario):
            raise AssertionError("engine executed despite a warm store")

        for name in list_engines():
            engine = get_engine(name)
            monkeypatch.setattr(type(engine), "run", boom)
        assert main(["lab", "check", *flags, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "1 stored" in out
