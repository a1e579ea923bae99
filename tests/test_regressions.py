"""Regression tests for boundary bugs found (and fixed) during development.

Each test pins a concrete failure mode so it cannot silently return.
"""

import asyncio
import json

import pytest

import repro.analysis.engine as analysis_engine
from repro.__main__ import main
from repro.api import RunReport, Scenario, Sweep, run_sweep
from repro.api.sweep import run_key
from repro.core.protocol import run_swap
from repro.core.timelocks import run_single_leader_swap
from repro.digraph.digraph import Digraph
from repro.digraph.generators import random_strongly_connected, triangle
from repro.digraph.paths import all_simple_paths
from repro.errors import AnalysisError
from repro.fleet import FleetCoordinator, FleetWorker
from repro.lab.store import SqliteStore, open_store
from repro.serve.service import ServiceConfig, SwapService
from repro.sim import trace as tr

TWO_CYCLE = Digraph(["A", "B"], [("A", "B"), ("B", "A")])
DELTA = 1000


class TestDiameterOneLiveness:
    """With strict Fig-5 deadlines, diam=1 digraphs are the tightest case:
    the leader's |p|=0 hashkey expires at start + Δ.  Leaders publishing
    *at* T (contracts prepared during the §4.2 lead time) is what keeps
    this live; an extra initial action delay broke it."""

    def test_two_cycle_completes_with_strict_deadlines(self):
        result = run_swap(TWO_CYCLE)
        assert result.all_deal(), result.summary()

    def test_leader_contracts_land_exactly_at_start(self):
        result = run_swap(TWO_CYCLE)
        published = result.trace.times_by_arc(tr.CONTRACT_PUBLISHED)
        leader = result.spec.leaders[0]
        for arc in result.spec.digraph.out_arcs(leader):
            assert published[arc] == result.spec.start_time

    def test_two_cycle_single_leader_variant(self):
        result = run_single_leader_swap(TWO_CYCLE)
        assert result.all_deal()

    def test_multigraph_two_cycle(self):
        from repro.core.multiswap import run_multigraph_swap
        from repro.digraph.multigraph import MultiDigraph

        mg = MultiDigraph(["A", "B"], [("A", "B", 0), ("A", "B", 1), ("B", "A", 0)])
        assert run_multigraph_swap(mg).all_deal()


class TestCyclePathEnumeration:
    """all_simple_paths once missed cycles (source == target) entirely."""

    def test_self_paths_include_cycles(self):
        k3 = Digraph(
            ["A", "B", "C"],
            [("A", "B"), ("B", "A"), ("B", "C"), ("C", "B"), ("A", "C"), ("C", "A")],
        )
        found = set(all_simple_paths(k3, "A", "A"))
        assert ("A",) in found
        assert ("A", "B", "A") in found
        assert ("A", "B", "C", "A") in found
        assert ("A", "C", "B", "A") in found

    def test_cycle_paths_have_distinct_interiors(self):
        k3 = Digraph(
            ["A", "B", "C"],
            [("A", "B"), ("B", "A"), ("B", "C"), ("C", "B"), ("A", "C"), ("C", "A")],
        )
        for path in all_simple_paths(k3, "A", "A"):
            interior = path[:-1]
            assert len(set(interior)) == len(interior)


class TestLargeGraphFallbacks:
    """Beyond the exact-computation limit, diameter and longest paths fall
    back to the safe |V|-1 bound; the protocol must still run correctly
    (deadlines only lengthen)."""

    def test_large_random_swap_completes(self):
        from random import Random

        digraph = random_strongly_connected(18, 0.12, Random(99))
        result = run_swap(digraph, exact_limit=10)
        assert result.all_deal(), result.summary()
        assert result.spec.diam == 17  # the |V|-1 fallback

    def test_fallback_bound_still_within_time_bound(self):
        from random import Random

        digraph = random_strongly_connected(16, 0.15, Random(5))
        result = run_swap(digraph, exact_limit=8)
        assert result.within_time_bound()


class TestWholeGraphEdgeCases:
    def test_two_parties_one_lock_deadlines(self):
        # diam(2-cycle) = 1; degenerate hashkey deadline = start + Δ.
        result = run_swap(TWO_CYCLE)
        spec = result.spec
        assert spec.diam == 1
        assert spec.hashkey_deadline(0) == spec.start_time + DELTA

    def test_refund_watches_do_not_leak_into_deal_runs(self):
        # In an all-Deal run no refund should ever fire.
        result = run_swap(TWO_CYCLE)
        assert result.trace.count(tr.ARC_REFUNDED) == 0

    def test_no_failed_transactions_in_conforming_runs(self):
        result = run_swap(TWO_CYCLE)
        for chain in result.network.chains():
            for record in chain.records():
                if record.kind == "contract_call":
                    assert record.payload["ok"], record


class TestReplayRefusalFallsBack:
    """A closed-form replay that refuses (``AnalysisError`` from
    ``synthesize_report``) used to escape the sweep, fleet and serve
    fast paths, killing a sweep chunk, a fleet worker or a serve
    submission, and later aborted ``lab check --verify --fast-path``.
    Every front end now simulates instead, as ``AnalyticEngine.run``
    always did."""

    def test_sweep_fleet_and_serve_store_a_simulated_report(self, monkeypatch, tmp_path):
        def refuse(scenario, prediction):
            raise AnalysisError("analytic replay: forced refusal")

        monkeypatch.setattr(analysis_engine, "synthesize_report", refuse)
        scenario = Scenario(topology=triangle(), seed=3, name="replay-refusal")
        key = run_key("herlihy", scenario)

        def simulated(entry):
            """The entry's report, checked to be a simulated all-Deal run."""
            assert entry["ok"], entry
            report = RunReport.from_dict(entry["report"])
            assert report.extra.get("path") != "analytic"
            assert report.all_deal()
            return report

        sweep = Sweep("refusal").add("herlihy", scenario)
        store = SqliteStore(":memory:")
        report = run_sweep(sweep, store=store, parallel=False, fast_path=True)
        assert not report.failures and report.analytic == 0
        swept = simulated(store.get(key))
        assert swept.extra["path"] == "simulated"

        path = tmp_path / "fleet.sqlite"
        with FleetCoordinator(path) as coordinator:
            coordinator.enqueue(sweep.items())
        with FleetWorker(path, worker_id="refusal-w0", fast_path=True) as worker:
            worker.run()
        with open_store(str(path)) as drained:
            assert simulated(drained.get(key)).extra["path"] == "simulated"

        async def serve():
            service = SwapService(ServiceConfig(rate=0.0, fast_path=True))
            await service.start()
            result = service.submit(scenario)
            assert result.status == "accepted"
            await service.wait(result.key, timeout=30)
            assert service._counters["analytic"] == 0
            assert service._counters["executed"] == 1
            entry = simulated(service.store.get(key))
            await service.stop()
            return entry

        served = asyncio.run(serve())
        assert served.outcomes == swept.outcomes

    def test_lab_check_verify_fast_path_simulates(self, monkeypatch, capsys):
        def refuse(scenario, prediction):
            raise AnalysisError("analytic replay: forced refusal")

        monkeypatch.setattr(analysis_engine, "synthesize_report", refuse)
        code = main([
            "lab", "check", "--verify", "--fast-path", "--store", ":memory:",
            "--family", "clique", "--grid", "n=3", "--json",
        ])
        assert code == 0
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check["analysis"]["coverage"] == "full"
        assert check["verify"]["status"] == "ok"
        assert check["verify"]["source"] == "executed"
