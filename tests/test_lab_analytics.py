"""repro.lab.analytics: fact extraction, aggregation, comparison.

The guarantees under test:

* ``parse_lab_name`` recovers group-by keys from the structured
  ``lab:<family>:<params>:<mix>:<engine>#<i>`` convention and degrades
  to ``"-"`` placeholders for ad-hoc names;
* ``aggregate`` computes rates over *successful* runs only, taxonomises
  failures by ``error_type``, and rejects unknown dimensions;
* ``compare`` pivots two engines head-to-head with a safety delta;
* the shared table emitters align columns;
* the whole pipeline agrees with a real ``run_sweep`` execution.
"""

from __future__ import annotations

import pytest

from repro.api import Sweep, run_sweep
from repro.digraph.generators import cycle_digraph, two_leader_triangle
from repro.errors import LabError
from repro.lab.analytics import (
    DIMENSIONS,
    aggregate,
    collect_facts,
    compare,
    compare_table,
    dimensions,
    entry_facts,
    format_rows,
    format_table,
    parse_lab_name,
    percentile,
    stats_payload,
    stats_table,
)
from repro.lab.store import SqliteStore
from repro.lab.workloads import Workload, build_sweep


def ok_entry(
    engine="herlihy",
    name="lab:cycle(n=3):n=3:all-conforming:herlihy#0",
    outcomes=None,
    conforming=("A", "B"),
    completion_time=100,
    stored_bytes=500,
    wall_seconds=0.01,
):
    return {
        "ok": True,
        "report": {
            "engine": engine,
            "scenario": {"name": name},
            "outcomes": outcomes if outcomes is not None else {
                "A": "Deal", "B": "Deal"
            },
            "conforming": list(conforming),
            "completion_time": completion_time,
            "stored_bytes": stored_bytes,
            "wall_seconds": wall_seconds,
        },
    }


def failed_entry(engine="herlihy", name="adhoc", error_type="ScenarioError"):
    return {
        "ok": False,
        "engine": engine,
        "scenario": {"name": name},
        "error_type": error_type,
        "message": "boom",
    }


class TestParseLabName:
    def test_lab_convention(self):
        parsed = parse_lab_name("lab:cycle(n=3):n=3:phase-crash:herlihy#4")
        assert parsed == {
            "family": "cycle(n=3)", "params": "n=3", "mix": "phase-crash"
        }

    @pytest.mark.parametrize(
        "name", ["", "adhoc", "sweep:herlihy:tri#0", "lab:too:short"]
    )
    def test_non_lab_names_degrade_to_placeholders(self, name):
        assert parse_lab_name(name) == {
            "family": "-", "params": "-", "mix": "-"
        }

    def test_colons_in_workload_label_stay_in_family(self):
        # Parsing is right-anchored, so a custom Workload name with
        # colons widens the family segment instead of shifting fields.
        parsed = parse_lab_name("lab:pilot:v2:n=3:phase-crash:herlihy#1")
        assert parsed == {
            "family": "pilot:v2", "params": "n=3", "mix": "phase-crash"
        }


class TestPercentile:
    def test_interpolation(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0) == 10.0
        assert percentile(values, 100) == 40.0
        assert percentile(values, 50) == 25.0
        assert percentile([7.0], 90) == 7.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(LabError):
            percentile([], 50)
        with pytest.raises(LabError):
            percentile([1.0], 101)


class TestFacts:
    def test_success_entry(self):
        fact = entry_facts("k" * 64, ok_entry())
        assert fact.ok and fact.error_type is None
        assert fact.engine == "herlihy"
        assert fact.family == "cycle(n=3)" and fact.mix == "all-conforming"
        assert fact.all_deal is True and fact.thm49_safe is True
        assert fact.completion_time == 100

    def test_underwater_conforming_party_is_unsafe(self):
        entry = ok_entry(
            outcomes={"A": "Deal", "B": "Underwater"}, conforming=("A", "B")
        )
        fact = entry_facts("k", entry)
        assert fact.all_deal is False and fact.thm49_safe is False

    def test_adversary_underwater_is_still_safe(self):
        # Thm 4.9 protects *conforming* parties only.
        entry = ok_entry(
            outcomes={"A": "Deal", "B": "Underwater"}, conforming=("A",)
        )
        fact = entry_facts("k", entry)
        assert fact.all_deal is False and fact.thm49_safe is True

    def test_failure_entry(self):
        fact = entry_facts("k", failed_entry())
        assert not fact.ok and fact.error_type == "ScenarioError"
        assert fact.all_deal is None and fact.completion_time is None
        assert fact.family == "-"

    def test_collect_facts_filters(self):
        store = SqliteStore(":memory:")
        store.put("k1", ok_entry(engine="herlihy"))
        store.put("k2", ok_entry(
            engine="2pc", name="lab:star(points=3):points=3:free-ride:2pc#1"
        ))
        assert len(collect_facts(store)) == 2
        assert [f.engine for f in collect_facts(store, engines=["2pc"])] == [
            "2pc"
        ]
        assert collect_facts(store, families=["star(points=3)"])[0].key == "k2"
        assert collect_facts(store, mixes=["no-such-mix"]) == []

    def test_dimensions(self):
        facts = [entry_facts("k1", ok_entry()), entry_facts("k2", failed_entry())]
        dims = dimensions(facts)
        assert set(dims) == set(DIMENSIONS)
        assert dims["engine"] == ("herlihy",)
        assert dims["family"] == ("-", "cycle(n=3)")


class TestAggregate:
    def facts(self):
        return [
            entry_facts("k1", ok_entry(completion_time=100)),
            entry_facts("k2", ok_entry(
                name="lab:cycle(n=3):n=3:phase-crash:herlihy#1",
                outcomes={"A": "NoDeal", "B": "NoDeal"},
                completion_time=300,
            )),
            entry_facts("k3", failed_entry(error_type="ScenarioError")),
            entry_facts("k4", failed_entry(error_type="EngineError")),
        ]

    def test_rates_are_over_successes_only(self):
        (stats,) = aggregate(self.facts(), by=("engine",))
        assert stats.runs == 4 and stats.ok == 2
        assert stats.all_deal == 1 and stats.all_deal_rate == 0.5
        assert stats.thm49_safe == 2 and stats.thm49_safe_rate == 1.0
        assert stats.completion_mean == 200.0
        assert stats.failures == {"ScenarioError": 1, "EngineError": 1}

    def test_group_by_mix_splits_groups(self):
        stats = aggregate(self.facts(), by=("engine", "mix"))
        groups = [dict(gs.group) for gs in stats]
        assert {"engine": "herlihy", "mix": "all-conforming"} in groups
        assert {"engine": "herlihy", "mix": "phase-crash"} in groups
        assert len(stats) == 3  # + the "-" group of the two failures

    def test_empty_group_rates_are_zero(self):
        (stats,) = aggregate([entry_facts("k", failed_entry())], by=("engine",))
        assert stats.ok == 0
        assert stats.all_deal_rate == 0.0 and stats.thm49_safe_rate == 0.0
        assert stats.completion_mean is None and stats.completion_p90 is None

    @pytest.mark.parametrize("by", [(), ("engine", "vibe"), ("outcome",)])
    def test_rejects_bad_dimensions(self, by):
        with pytest.raises(LabError):
            aggregate(self.facts(), by=by)

    def test_verdict_is_groupable(self):
        # The analyzer's predicted verdict joined the groupable set.
        stats = aggregate(self.facts(), by=("verdict",))
        assert stats and all(
            dict(gs.group)["verdict"] for gs in stats
        )
        assert sum(gs.runs for gs in stats) == 4

    def test_stats_payload_shape(self):
        payload = stats_payload(self.facts(), by=("engine",))
        assert payload["total_runs"] == 4
        assert payload["by"] == ["engine"]
        (group,) = payload["groups"]
        assert group["group"] == {"engine": "herlihy"}
        assert group["failures"] == {"ScenarioError": 1, "EngineError": 1}


class TestCompare:
    def facts(self):
        return [
            entry_facts("k1", ok_entry(engine="herlihy")),
            entry_facts("k2", ok_entry(
                engine="naive-timelock",
                name="lab:cycle(n=3):n=3:all-conforming:naive-timelock#1",
                outcomes={"A": "Deal", "B": "Underwater"},
            )),
            entry_facts("k3", ok_entry(
                engine="herlihy",
                name="lab:star(points=3):points=3:all-conforming:herlihy#2",
            )),
        ]

    def test_head_to_head_rows(self):
        rows = compare(self.facts(), "herlihy", "naive-timelock", by="family")
        assert [row["family"] for row in rows] == [
            "cycle(n=3)", "star(points=3)"
        ]
        cycle = rows[0]
        assert cycle["runs"] == (1, 1)
        assert cycle["thm49_safe_rate"] == (1.0, 0.0)
        assert cycle["safety_delta"] == -1.0  # b - a: timelock is worse
        star = rows[1]  # only herlihy ran star: b side is None
        assert star["runs"] == (1, 0)
        assert star["safety_delta"] is None

    def test_rejects_engine_pivot(self):
        with pytest.raises(LabError):
            compare(self.facts(), "herlihy", "2pc", by="engine")

    def test_compare_table_renders(self):
        rows = compare(self.facts(), "herlihy", "naive-timelock", by="family")
        headers, table = compare_table(rows, "herlihy", "naive-timelock",
                                       "family")
        assert headers[0] == "family" and len(table) == 2
        assert "-" in table[1]  # the missing star side renders as dashes


class TestTableEmitters:
    def test_format_rows_aligns_columns(self):
        text = format_rows(["a", "long-header"], [["xx", 1], ["y", 22]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # rectangular
        assert lines[1].count("-+-") == 1

    def test_format_table_underlines_title(self):
        text = format_table("T1", ["h"], [["v"]])
        assert text.splitlines()[1] == "==" == "=" * len("T1")

    def test_stats_table_shape(self):
        stats = aggregate(
            [entry_facts("k", ok_entry())], by=("engine", "family")
        )
        headers, rows = stats_table(stats, ("engine", "family"))
        assert headers[:2] == ["engine", "family"]
        assert rows[0][:2] == ["herlihy", "cycle(n=3)"]
        assert "100%" in rows[0]


class TestEndToEnd:
    def test_real_sweep_aggregates(self):
        store = SqliteStore(":memory:")
        sweep = build_sweep(
            [
                Workload(
                    "cycle", {"n": [3, 4]},
                    mixes=("all-conforming",),
                    engines=("herlihy", "naive-timelock"),
                )
            ]
        )
        run_sweep(sweep, parallel=False, store=store)
        facts = collect_facts(store)
        assert len(facts) == 4

        stats = aggregate(facts, by=("engine",))
        assert [dict(gs.group)["engine"] for gs in stats] == [
            "herlihy", "naive-timelock"
        ]
        # all-conforming: Thm 4.2 — everyone Deals, on both engines
        assert all(gs.all_deal_rate == 1.0 for gs in stats)

        rows = compare(facts, "herlihy", "naive-timelock", by="params")
        assert [row["params"] for row in rows] == ["n=3", "n=4"]
        assert all(row["safety_delta"] == 0.0 for row in rows)

    def test_failures_feed_the_taxonomy(self):
        store = SqliteStore(":memory:")
        sweep = Sweep("t")
        # single-leader on K3: no single-vertex FVS -> recorded failure
        from repro.api import Scenario

        sweep.add("single-leader", Scenario(topology=two_leader_triangle()))
        sweep.add("herlihy", Scenario(topology=cycle_digraph(3)))
        run_sweep(sweep.items(), parallel=False, store=store)

        (stats,) = aggregate(collect_facts(store), by=("family",))
        assert stats.runs == 2 and stats.ok == 1
        assert sum(stats.failures.values()) == 1
