"""repro.lab.store: round-trips, resume semantics, warm-cache sweeps.

The load-bearing guarantees:

* the store round-trips entries in memory and on disk, and survives
  reopen; JSON-lines exports import back to the same records;
* ``run_sweep(store=...)`` serves warm scenarios without executing a
  single engine (asserted by making execution impossible);
* interrupted sweeps resume — only the missing scenarios run;
* content addressing ignores display names and topology declaration
  order, but distinguishes every field that changes the run.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.api.sweep as sweep_mod
from repro.api import Scenario, Sweep, run_key, run_sweep
from repro.digraph.digraph import Digraph
from repro.digraph.generators import cycle_digraph, triangle, two_leader_triangle
from repro.errors import StoreError
from repro.lab.analytics import collect_facts, stats_payload
from repro.fleet.coordinator import FleetCoordinator
from repro.lab.store import (
    BUSY_TIMEOUT_MS,
    SqliteStore,
    open_store,
    read_jsonl,
    write_jsonl,
)

ENTRY = {"ok": False, "engine": "x", "scenario": {"name": "s"},
         "error_type": "E", "message": "m"}


def _make_stores(tmp_path):
    return [SqliteStore(":memory:"), SqliteStore(tmp_path / "runs.sqlite")]


class TestBackends:
    def test_round_trip_all_backends(self, tmp_path):
        for store in _make_stores(tmp_path):
            assert store.get("k") is None
            assert "k" not in store
            store.put("k", ENTRY)
            assert store.get("k") == ENTRY
            assert "k" in store
            assert len(store) == 1
            assert store.keys() == ("k",)
            store.close()

    @pytest.mark.parametrize("filename", ["runs.db", "runs.sqlite"])
    def test_persistence_across_reopen(self, tmp_path, filename):
        path = tmp_path / filename
        with open_store(path) as store:
            store.put("aa11", ENTRY)
            store.put("ab22", {"ok": True, "report": {"engine": "e",
                                                      "scenario": {"name": "n"}}})
        with open_store(path) as store:
            assert len(store) == 2
            assert store.get("aa11") == ENTRY
            assert store.find("aa") == ["aa11"]
            assert sorted(store.find("a")) == ["aa11", "ab22"]

    def test_put_overwrites(self, tmp_path):
        for store in _make_stores(tmp_path):
            store.put("k", ENTRY)
            store.put("k", {"ok": True, "report": {}})
            assert store.get("k")["ok"] is True
            assert len(store) == 1
            store.close()

    def test_jsonl_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        with SqliteStore(":memory:") as store:
            store.put("good", ENTRY, recorded_at=1.0)
            write_jsonl(store, path)
        with path.open("a") as handle:
            handle.write('{"key": "torn", "entry": {"ok"')  # killed mid-write
        assert read_jsonl(path) == [("good", ENTRY, 1.0)]

    def test_jsonl_later_line_shadows_and_moves_to_the_end(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        lines = [
            {"key": "a", "recorded_at": 1.0, "entry": ENTRY},
            {"key": "b", "recorded_at": 2.0, "entry": ENTRY},
            {"key": "a", "recorded_at": 3.0, "entry": OK_ENTRY},
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert read_jsonl(path) == [("b", ENTRY, 2.0), ("a", OK_ENTRY, 3.0)]

    def test_jsonl_unstamped_shadowing_line_sheds_old_stamp(self, tmp_path):
        # A later line for a key without recorded_at must not keep the
        # shadowed line's stamp — the entry that stamp belonged to is
        # gone, and merge_from would trust the stale timestamp.
        path = tmp_path / "runs.jsonl"
        with SqliteStore(":memory:") as store:
            store.put("k", ENTRY, recorded_at=100.0)
            write_jsonl(store, path)
        with path.open("a") as handle:
            handle.write(json.dumps({"key": "k", "entry": {"ok": True,
                                                           "report": {}}}))
            handle.write("\n")
        (record,) = read_jsonl(path)
        assert record == ("k", {"ok": True, "report": {}}, None)

    def test_jsonl_export_keeps_the_append_only_line_format(self, tmp_path):
        # Pre-existing *.jsonl stores wrote one sort_keys line per put;
        # the export writes exactly those bytes, so old files import
        # unchanged and an export round-trips to the same records.
        path = tmp_path / "runs.jsonl"
        with SqliteStore(tmp_path / "runs.sqlite") as store:
            store.put("k1", ENTRY, recorded_at=1.5)
            store.put("k2", OK_ENTRY, recorded_at=2.5)
            assert write_jsonl(store, path) == 2
            assert read_jsonl(path) == list(store.records())
        assert path.read_text() == "".join(
            json.dumps({"key": key, "recorded_at": stamp, "entry": entry},
                       sort_keys=True) + "\n"
            for key, entry, stamp in [("k1", ENTRY, 1.5), ("k2", OK_ENTRY, 2.5)]
        )

    def test_open_store_dispatch(self, tmp_path):
        assert isinstance(open_store(":memory:"), SqliteStore)
        assert isinstance(open_store(tmp_path / "a.sqlite"), SqliteStore)
        assert isinstance(open_store(tmp_path / "a.db"), SqliteStore)
        for name in ("a.jsonl", "a.ndjson"):
            with pytest.raises(StoreError, match="lab merge.*lab export"):
                open_store(tmp_path / name)
            assert not (tmp_path / name).exists()

    def test_index_matches_entries_without_parsing_reports(self, tmp_path):
        ok_entry = {
            "ok": True,
            "report": {"engine": "herlihy", "scenario": {"name": "n1"}},
        }
        for store in _make_stores(tmp_path):
            store.put("k1", ok_entry)
            store.put("k2", ENTRY)
            assert sorted(store.index()) == [
                ("k1", "herlihy", "n1", True),
                ("k2", "x", "s", False),
            ]
            store.close()

    def test_sqlite_rejects_non_database_file(self, tmp_path):
        path = tmp_path / "notes.sqlite"
        path.write_text("this is not a database\n")
        with pytest.raises(StoreError, match="cannot open sqlite store"):
            SqliteStore(path)

    def test_report_accessor(self, tmp_path):
        store = SqliteStore(":memory:")
        with pytest.raises(StoreError):
            store.report("missing")
        store.put("f", ENTRY)
        with pytest.raises(StoreError):
            store.report("f")  # failure record, not a report


OK_ENTRY = {"ok": True, "report": {"engine": "e", "scenario": {"name": "n"}}}


class TestIterationOrder:
    """The pinned store contract: recording order, re-record at the end,
    in memory and on disk alike."""

    def test_rerecord_moves_key_to_the_end_everywhere(self, tmp_path):
        for store in _make_stores(tmp_path):
            for key in ("a", "b", "c"):
                store.put(key, ENTRY)
            store.put("a", OK_ENTRY)  # re-record: a leaves slot 0
            assert store.keys() == ("b", "c", "a")
            assert [k for k, _ in store.entries()] == ["b", "c", "a"]
            assert [row[0] for row in store.index()] == ["b", "c", "a"]
            assert [
                (k, e) for k, e, _ in store.records()
            ] == list(store.entries())
            store.close()

    @pytest.mark.parametrize("filename", ["runs.db", "runs.sqlite"])
    def test_order_survives_reopen(self, tmp_path, filename):
        path = tmp_path / filename
        with open_store(path) as store:
            for key in ("a", "b", "c"):
                store.put(key, ENTRY)
            store.put("b", OK_ENTRY)
        with open_store(path) as store:
            assert store.keys() == ("a", "c", "b")


class TestMergeFrom:
    def test_merge_between_any_backends(self, tmp_path):
        # Sources: an in-memory store, a file store, and their exports.
        for i, src in enumerate(_make_stores(tmp_path / "src")):
            src.put("k1", ENTRY, recorded_at=10.0)
            src.put("k2", OK_ENTRY, recorded_at=20.0)
            write_jsonl(src, tmp_path / f"src{i}.jsonl")
            exported = read_jsonl(tmp_path / f"src{i}.jsonl")
            for j, records in enumerate([list(src.records()), exported]):
                for dest in _make_stores(tmp_path / f"dest{i}{j}"):
                    assert dest.merge_from(records) == 2
                    assert dest.get("k1") == ENTRY
                    assert dest.get("k2") == OK_ENTRY
                    # provenance: the source timestamps survive the merge
                    assert dest.recorded_at("k1") == 10.0
                    assert dest.recorded_at("k2") == 20.0
                    dest.close()
            src.close()

    def test_newest_recorded_at_wins(self, tmp_path):
        dest = SqliteStore(tmp_path / "dest.sqlite")
        dest.put("k", ENTRY, recorded_at=100.0)
        newer = SqliteStore(":memory:")
        newer.put("k", OK_ENTRY, recorded_at=200.0)
        assert dest.merge_from(newer.records()) == 1
        assert dest.get("k") == OK_ENTRY

        older = SqliteStore(":memory:")
        older.put("k", ENTRY, recorded_at=50.0)
        assert dest.merge_from(older.records()) == 0  # stale shard: no change
        assert dest.get("k") == OK_ENTRY
        assert dest.recorded_at("k") == 200.0

    def test_merge_is_idempotent(self, tmp_path):
        shard = SqliteStore(tmp_path / "shard.sqlite")
        shard.put("k1", ENTRY, recorded_at=1.0)
        shard.put("k2", OK_ENTRY, recorded_at=2.0)
        write_jsonl(shard, tmp_path / "shard.jsonl")
        dest = SqliteStore(tmp_path / "dest.sqlite")
        assert dest.merge_from(shard.records()) == 2
        assert dest.merge_from(shard.records()) == 0  # same shard: no writes
        assert dest.merge_from(read_jsonl(tmp_path / "shard.jsonl")) == 0
        assert len(dest) == 2

    def test_unknown_timestamp_merges_as_oldest_and_converges(self, tmp_path):
        # A JSONL line without recorded_at (tolerated on import) must not
        # win conflicts just because it was merged first.
        (tmp_path / "unknown.jsonl").write_text(
            json.dumps({"key": "k", "entry": ENTRY}) + "\n"
        )
        unknown = read_jsonl(tmp_path / "unknown.jsonl")
        assert unknown == [("k", ENTRY, None)]
        stamped = SqliteStore(":memory:")
        stamped.put("k", OK_ENTRY, recorded_at=100.0)

        first = SqliteStore(tmp_path / "first.sqlite")
        first.merge_from(unknown), first.merge_from(stamped.records())
        second = SqliteStore(tmp_path / "second.sqlite")
        second.merge_from(stamped.records()), second.merge_from(unknown)
        assert first.get("k") == OK_ENTRY == second.get("k")
        assert first.recorded_at("k") == 100.0 == second.recorded_at("k")

    def test_equal_timestamps_converge_via_tiebreak(self, tmp_path):
        # Two shards stamped the same run at the same instant with
        # machine-local differences (wall_seconds): merge order must not
        # decide the winner.
        entry_a = {"ok": True, "report": {"wall_seconds": 0.25}}
        entry_b = {"ok": True, "report": {"wall_seconds": 0.75}}
        a, b = SqliteStore(":memory:"), SqliteStore(":memory:")
        a.put("k", entry_a, recorded_at=100.0)
        b.put("k", entry_b, recorded_at=100.0)

        ab = SqliteStore(tmp_path / "ab.sqlite")
        ab.merge_from(a.records()), ab.merge_from(b.records())
        ba = SqliteStore(":memory:")
        ba.merge_from(b.records()), ba.merge_from(a.records())
        assert ab.get("k") == ba.get("k")

    def test_merge_order_converges(self, tmp_path):
        """Shards of one sweep merge to the same store in either order."""
        a = SqliteStore(":memory:")
        a.put("shared", ENTRY, recorded_at=1.0)
        a.put("only-a", OK_ENTRY, recorded_at=2.0)
        b = SqliteStore(":memory:")
        b.put("shared", OK_ENTRY, recorded_at=3.0)  # b re-ran it later
        b.put("only-b", ENTRY, recorded_at=4.0)

        ab = SqliteStore(tmp_path / "ab.sqlite")
        ab.merge_from(a.records()), ab.merge_from(b.records())
        ba = SqliteStore(tmp_path / "ba.sqlite")
        ba.merge_from(b.records()), ba.merge_from(a.records())

        def content(store):
            return {
                key: (store.get(key), store.recorded_at(key))
                for key in store.keys()
            }

        assert content(ab) == content(ba)
        assert ab.get("shared") == OK_ENTRY


class TestSqliteCommitBatching:
    def test_rejects_nonpositive_commit_every(self, tmp_path):
        with pytest.raises(StoreError):
            SqliteStore(tmp_path / "runs.sqlite", commit_every=0)

    def test_puts_commit_at_batch_boundaries(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        store = SqliteStore(path, commit_every=4)
        other = sqlite3.connect(str(path))  # what a crash would leave

        def durable():
            return other.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

        for i in range(3):
            store.put(f"k{i}", ENTRY)
        assert durable() == 0  # deferred, but visible to the writer...
        assert len(store) == 3 and store.get("k0") == ENTRY
        store.put("k3", ENTRY)
        assert durable() == 4  # ...and committed at the K-th put
        store.put("k4", ENTRY)
        store.close()  # close always flushes the partial batch
        assert durable() == 5
        other.close()

    def test_run_sweep_flushes_each_result(self, tmp_path):
        # Even with a huge batch size, sweep results must be durable
        # (visible to a second connection, what a crash would leave)
        # before the store is closed: run_sweep flushes per chunk.
        path = tmp_path / "runs.sqlite"
        store = SqliteStore(path, commit_every=1000)
        run_sweep(_sweep(), parallel=False, store=store)
        other = sqlite3.connect(str(path))
        assert other.execute("SELECT COUNT(*) FROM runs").fetchone()[0] == 4
        other.close()
        store.close()

    def test_commit_every_one_is_per_put_durable(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        store = SqliteStore(path, commit_every=1)
        other = sqlite3.connect(str(path))
        store.put("k", ENTRY)
        assert other.execute("SELECT COUNT(*) FROM runs").fetchone()[0] == 1
        other.close()
        store.close()

    def test_close_is_idempotent(self, tmp_path):
        store = SqliteStore(tmp_path / "runs.sqlite")
        store.put("k", ENTRY)
        with store:
            store.close()  # early manual close inside the with-block
        store.close()  # and again after __exit__


def _sweep() -> Sweep:
    return Sweep("t").add_product(
        ["herlihy", "single-leader"],
        [("tri", triangle()), ("c4", cycle_digraph(4))],
    )


class TestWalConcurrency:
    """The daemon's writer and `lab stats`-style readers must coexist."""

    def test_sqlite_store_opens_in_wal_mode(self, tmp_path):
        store = SqliteStore(tmp_path / "runs.sqlite")
        assert store.journal_mode == "wal"
        store.close()
        # A reopen keeps WAL (the mode is persistent in the db header).
        reopened = SqliteStore(tmp_path / "runs.sqlite")
        assert reopened.journal_mode == "wal"
        reopened.close()

    def test_busy_timeout_is_set(self, tmp_path):
        """Both run-store writers wait out a lock for the one constant."""
        busy = "PRAGMA busy_timeout"
        with SqliteStore(tmp_path / "runs.sqlite") as store:
            assert store._db.execute(busy).fetchone()[0] == BUSY_TIMEOUT_MS
        with FleetCoordinator(tmp_path / "fleet.sqlite") as coordinator:
            assert coordinator._db.execute(busy).fetchone()[0] == BUSY_TIMEOUT_MS

    def test_concurrent_writer_and_readers(self, tmp_path):
        """A committing writer and same-time readers never see
        'database is locked' — WAL readers get the last snapshot."""
        path = tmp_path / "runs.sqlite"
        SqliteStore(path).close()  # create schema before threads race
        n_writes, stop = 120, threading.Event()
        errors: list[Exception] = []

        def writer():
            try:
                store = SqliteStore(path, commit_every=1)
                for i in range(n_writes):
                    store.put(f"k{i:04d}", OK_ENTRY)
                store.close()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)
            finally:
                stop.set()

        def reader():
            try:
                store = SqliteStore(path)
                seen = 0
                while not stop.is_set() or seen < 1:
                    keys = store.keys()
                    assert list(keys) == sorted(keys)  # rowid order = put order
                    store.index()
                    seen += 1
                store.close()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)
                stop.set()

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
        with SqliteStore(path) as final:
            assert len(final) == n_writes


class TestSweepStoreIntegration:
    def test_cold_run_populates_store(self, tmp_path):
        store = SqliteStore(":memory:")
        report = run_sweep(_sweep(), parallel=False, store=store)
        assert report.executed == 4 and report.cached == 0
        assert len(store) == 4
        for engine, scenario in _sweep().items():
            assert run_key(engine, scenario) in store

    def test_warm_run_executes_zero_engines(self, tmp_path, monkeypatch):
        store = SqliteStore(tmp_path / "runs.sqlite")
        cold = run_sweep(_sweep(), parallel=False, store=store)

        def explode(engine_name, scenario, fast_path=False):
            raise AssertionError("an engine executed on a warm store")

        monkeypatch.setattr(sweep_mod, "execute_scenario", explode)
        warm = run_sweep(_sweep(), parallel=False, store=store)
        assert warm.mode == "cached"
        assert warm.executed == 0 and warm.cached == 4
        assert [r.to_dict() for r in warm.reports] == [
            r.to_dict() for r in cold.reports
        ]

    def test_serial_reports_are_their_stored_entries(self):
        store = SqliteStore(":memory:")
        items = _sweep().items()
        report = run_sweep(items, parallel=False, store=store)
        assert report.mode == "serial" and len(report.reports) == len(items)
        for (engine, scenario), run in zip(items, report.reports):
            assert run.scenario is scenario and run.raw is None
            assert run.to_dict() == store.get(run_key(engine, scenario))["report"]

    def test_interrupted_sweep_resumes_incrementally(self, tmp_path, monkeypatch):
        store = SqliteStore(tmp_path / "runs.sqlite")
        items = _sweep().items()
        run_sweep(items[:2], parallel=False, store=store)  # "interrupted" half

        executed = []
        real = sweep_mod.execute_scenario

        def counting(engine_name, scenario, fast_path=False):
            executed.append(engine_name)
            return real(engine_name, scenario, fast_path)

        # A serial sweep runs the scenarios it holds, not their dicts.
        monkeypatch.setattr(sweep_mod, "execute_scenario", counting)
        resumed = run_sweep(items, parallel=False, store=store)
        assert len(executed) == 2  # only the missing half ran
        assert resumed.executed == 2 and resumed.cached == 2
        assert len(resumed.reports) == 4

    def test_failures_are_cached_too(self, monkeypatch):
        store = SqliteStore(":memory:")
        # single-leader on K3: no single-vertex FVS -> recorded failure.
        items = [("single-leader", Scenario(topology=two_leader_triangle()))]
        cold = run_sweep(items, parallel=False, store=store)
        assert len(cold.failures) == 1 and len(store) == 1

        monkeypatch.setattr(
            sweep_mod, "execute_scenario",
            lambda *args: (_ for _ in ()).throw(AssertionError("executed")),
        )
        warm = run_sweep(items, parallel=False, store=store)
        assert warm.mode == "cached" and warm.executed == 0
        assert len(warm.failures) == 1
        assert warm.failures[0].error_type == cold.failures[0].error_type

    def test_no_store_keeps_legacy_behaviour(self):
        report = run_sweep(_sweep(), parallel=False)
        assert report.cached == 0 and report.executed == 4
        assert report.mode == "serial"


class SimulatedCrash(Exception):
    """Stands in for the process dying mid-sweep."""


class CrashingStore(SqliteStore):
    """Raises after ``crash_after`` puts, then releases ``unblock``."""

    def __init__(self, crash_after: int, unblock: threading.Event) -> None:
        super().__init__(":memory:")
        self.crash_after = crash_after
        self.unblock = unblock

    def put(self, key, entry, recorded_at=None):
        super().put(key, entry, recorded_at)
        if len(self) >= self.crash_after:
            self.unblock.set()
            raise SimulatedCrash(f"crashed after {len(self)} puts")


class TestOutOfOrderPersistence:
    """The headline regression: ``pool.map`` yields strictly in sweep
    order, so results completed out of order sat unpersisted until every
    earlier chunk finished — an interruption discarded them, despite the
    docstring's "persisted the moment its worker returns".  The
    submit + as_completed path records each chunk as it finishes.
    """

    def test_interruption_keeps_every_completed_run(self, monkeypatch):
        sweep = Sweep("t").add_product(
            ["herlihy"],
            [(f"c{n}", cycle_digraph(n)) for n in range(3, 9)],  # 6 items
        )
        # Threads instead of processes so the first chunk can stall on an
        # in-memory event; run_sweep's pool protocol is identical.
        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", ThreadPoolExecutor)
        unblock = threading.Event()
        real_chunk = sweep_mod.execute_chunk

        def stall_first_item(payloads, fast_path=False):
            if payloads[0][1]["name"].endswith("#0"):
                unblock.wait(timeout=30)
            return real_chunk(payloads, fast_path)

        monkeypatch.setattr(sweep_mod, "execute_chunk", stall_first_item)

        crash_after = 3
        store = CrashingStore(crash_after, unblock)
        with pytest.raises(SimulatedCrash):
            run_sweep(sweep, parallel=True, max_workers=2, store=store)

        # Every run completed before the crash was already persisted...
        assert len(store) >= crash_after
        # ...and none of them is sweep item #0: the persisted runs all
        # completed *out of sweep order*, which pool.map would have
        # buffered (and an interruption would have discarded).
        items = sweep.items()
        first_key = run_key(items[0][0], items[0][1])
        assert first_key not in store
        stored_keys = {run_key(e, s) for e, s in items[1:]}
        assert set(store.keys()) <= stored_keys

    def test_resume_after_interruption_runs_only_the_missing(self, monkeypatch):
        sweep = Sweep("t").add_product(
            ["herlihy"],
            [(f"c{n}", cycle_digraph(n)) for n in range(3, 9)],
        )
        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", ThreadPoolExecutor)
        unblock = threading.Event()
        real_chunk = sweep_mod.execute_chunk

        def stall_first_item(payloads, fast_path=False):
            if payloads[0][1]["name"].endswith("#0"):
                unblock.wait(timeout=30)
            return real_chunk(payloads, fast_path)

        monkeypatch.setattr(sweep_mod, "execute_chunk", stall_first_item)
        crashing = CrashingStore(3, unblock)
        with pytest.raises(SimulatedCrash):
            run_sweep(sweep, parallel=True, max_workers=2, store=crashing)

        # Resume into a fresh store seeded with what survived the crash.
        survivor = SqliteStore(":memory:")
        for key in crashing.keys():
            survivor.put(key, crashing.get(key))
        resumed = run_sweep(sweep, parallel=False, store=survivor)
        assert resumed.cached == len(crashing)
        assert resumed.executed == len(sweep) - len(crashing)
        assert len(resumed.reports) == len(sweep)


class TestShardedStatsParity:
    def test_merged_shards_report_identical_aggregates(self, tmp_path):
        """lab stats over a merged two-shard store == the single store."""
        whole = SqliteStore(":memory:")
        run_sweep(_sweep(), parallel=False, store=whole)
        assert len(whole) == 4

        shard_a = SqliteStore(":memory:")  # shipped as a JSONL export
        shard_b = SqliteStore(tmp_path / "b.sqlite")
        for i, (key, entry) in enumerate(whole.entries()):
            shard = shard_a if i % 2 else shard_b
            shard.put(key, entry, recorded_at=whole.recorded_at(key))
        write_jsonl(shard_a, tmp_path / "a.jsonl")

        merged = SqliteStore(tmp_path / "merged.sqlite")
        assert merged.merge_from(read_jsonl(tmp_path / "a.jsonl")) + merged.merge_from(
            shard_b.records()
        ) == 4
        by = ("engine", "family", "mix")
        assert stats_payload(collect_facts(merged), by) == stats_payload(
            collect_facts(whole), by
        )
        for store in (shard_a, shard_b, merged):
            store.close()


class TestContentAddressing:
    def test_name_does_not_change_key(self):
        a = Scenario(topology=triangle(), name="alpha")
        b = Scenario(topology=triangle(), name="beta")
        assert a.canonical_text() == b.canonical_text()
        assert run_key("herlihy", a) == run_key("herlihy", b)

    def test_topology_order_does_not_change_key(self):
        forward = Digraph(["A", "B", "C"], [("A", "B"), ("B", "C"), ("C", "A")])
        shuffled = Digraph(["C", "A", "B"], [("C", "A"), ("A", "B"), ("B", "C")])
        assert forward == shuffled
        assert (
            Scenario(topology=forward).canonical_text()
            == Scenario(topology=shuffled).canonical_text()
        )

    def test_engine_and_fields_change_key(self):
        scenario = Scenario(topology=triangle())
        assert run_key("herlihy", scenario) != run_key("multiswap", scenario)
        assert (
            scenario.canonical_text()
            != scenario.with_(seed=scenario.seed + 1).canonical_text()
        )
        assert (
            scenario.canonical_text()
            != scenario.with_(delta=scenario.delta + 1).canonical_text()
        )
        assert (
            scenario.canonical_text()
            != scenario.with_(
                strategies={"Carol": "last-moment-unlock"}
            ).canonical_text()
        )

    def test_key_is_stable_json(self):
        scenario = Scenario(topology=triangle(), params={"b": 1, "a": 2})
        reordered = Scenario(topology=triangle(), params={"a": 2, "b": 1})
        assert scenario.canonical_text() == reordered.canonical_text()
        # and the key is a 64-hex sha256 digest
        key = run_key("herlihy", scenario)
        assert len(key) == 64 and int(key, 16) >= 0

    def test_round_tripped_scenario_keeps_key(self):
        scenario = Scenario(
            topology=cycle_digraph(4),
            strategies={"P00": "withhold-secret"},
            params={"x": [1, 2]},
        )
        clone = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert clone.canonical_text() == scenario.canonical_text()
