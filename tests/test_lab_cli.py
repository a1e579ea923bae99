"""The ``python -m repro lab`` CLI, driven through ``repro.__main__``.

Round-trips the acceptance flow: ``lab run`` populates a store, a second
``lab run`` is fully cached, ``lab ls``/``show``/``diff`` read it back,
and the discovery subcommands enumerate the registry.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.__main__ import main
from repro.lab.store import open_store


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "runs.sqlite")


def _run(args):
    return main(["lab", *args])


class TestRun:
    def test_run_family_then_warm_rerun(self, store_path, capsys):
        args = [
            "run", "--family", "cycle", "--grid", "n=3,4",
            "--mix", "all-conforming", "--mix", "last-moment",
            "--serial", "--store", store_path,
        ]
        assert _run(args) == 0
        cold = capsys.readouterr().out
        assert "executed 4, cached 0" in cold
        assert "4 run(s) stored" in cold

        assert _run(args) == 0
        warm = capsys.readouterr().out
        assert "executed 0, cached 4" in warm
        assert "cached" in warm

    def test_run_preset(self, store_path, capsys):
        assert _run(["run", "--preset", "smoke", "--serial",
                     "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "all-Deal" in out or "runs=" in out
        with open_store(store_path) as store:
            assert len(store) == 12  # 2 sizes x 6 engines

    def test_run_requires_target(self, store_path, capsys):
        assert _run(["run", "--store", store_path]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "error:" not in captured.out  # diagnostics stay off stdout

    def test_preset_and_family_are_mutually_exclusive(self, store_path, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["run", "--preset", "smoke", "--family", "cycle",
                  "--store", store_path])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_seed_rerolls_a_preset(self, store_path, capsys):
        base = ["run", "--preset", "impossibility", "--serial",
                "--store", store_path]
        assert _run(base) == 0
        capsys.readouterr()
        # same preset again: cached; with a fresh seed: re-rolled, not cached
        assert _run(base) == 0
        assert "executed 0" in capsys.readouterr().out
        assert _run([*base, "--seed", "999"]) == 0
        out = capsys.readouterr().out
        assert "cached 0" in out

    def test_unknown_family_is_reported(self, store_path, capsys):
        assert _run(["run", "--family", "nope", "--store", store_path]) == 1
        assert "unknown topology family" in capsys.readouterr().err

    def test_no_store_never_touches_the_store_path(self, tmp_path, capsys):
        path = tmp_path / "sub" / "runs.sqlite"
        assert _run(["run", "--family", "cycle", "--grid", "n=3", "--serial",
                     "--no-store", "--store", str(path)]) == 0
        out = capsys.readouterr().out
        assert "disabled (--no-store)" in out
        assert not path.exists() and not path.parent.exists()

    def test_export_merge_round_trip(self, store_path, tmp_path, capsys):
        exported = str(tmp_path / "runs.jsonl")
        copy = str(tmp_path / "copy.sqlite")
        assert _run(["run", "--family", "cycle", "--grid", "n=3,4",
                     "--mix", "all-conforming", "--mix", "phase-crash",
                     "--serial", "--store", store_path]) == 0
        capsys.readouterr()
        assert _run(["export", exported, "--store", store_path]) == 0
        assert "exported 4 run(s)" in capsys.readouterr().out
        assert _run(["merge", copy, exported]) == 0
        assert "0 -> 4 run(s)" in capsys.readouterr().out
        with open_store(store_path) as original, open_store(copy) as imported:
            assert list(imported.records()) == list(original.records())
        stats = []
        for path in (store_path, copy):
            assert _run(["stats", "--json", "--store", path]) == 0
            stats.append(json.loads(capsys.readouterr().out))
        assert stats[0] == stats[1]

    def test_jsonl_store_path_is_refused(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        assert _run(["run", "--family", "cycle", "--grid", "n=3",
                     "--serial", "--store", str(path)]) == 1
        err = capsys.readouterr().err
        assert "lab merge" in err and "lab export" in err
        assert not path.exists()

    def test_export_requires_a_jsonl_destination(self, store_path, tmp_path,
                                                 capsys):
        open_store(store_path).close()
        dest = tmp_path / "out.sqlite"
        assert _run(["export", str(dest), "--store", store_path]) == 1
        assert ".jsonl" in capsys.readouterr().err
        assert not dest.exists()


class TestInspection:
    @pytest.fixture
    def populated(self, store_path, capsys):
        _run(["run", "--family", "cycle", "--grid", "n=3",
              "--mix", "all-conforming", "--mix", "phase-crash",
              "--serial", "--store", store_path])
        capsys.readouterr()
        with open_store(store_path) as store:
            keys = store.keys()
        return store_path, keys

    def test_ls(self, populated, capsys):
        store_path, keys = populated
        assert _run(["ls", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "2 run(s) shown" in out
        for key in keys:
            assert key[:12] in out

    def test_ls_empty_store(self, tmp_path, capsys):
        path = str(tmp_path / "empty.sqlite")
        open_store(path).close()  # exists, holds no runs
        assert _run(["ls", "--store", path]) == 0
        assert "empty" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [["ls"], ["show", "abcd"],
                                      ["diff", "ab", "cd"], ["stats"]])
    def test_readonly_commands_reject_missing_store(self, tmp_path, capsys,
                                                    args):
        path = tmp_path / "typo.sqlite"
        assert _run([*args, "--store", str(path)]) == 1
        assert "no such store" in capsys.readouterr().err
        assert not path.exists()  # no junk store created

    def test_show_by_prefix(self, populated, capsys):
        store_path, keys = populated
        assert _run(["show", keys[0][:10], "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert f"key: {keys[0]}" in out
        assert "outcomes:" in out

    def test_show_json(self, populated, capsys):
        store_path, keys = populated
        assert _run(["show", keys[0][:10], "--json", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert '"ok": true' in out

    def test_show_missing_prefix(self, populated, capsys):
        store_path, _ = populated
        assert _run(["show", "ffffffffffff", "--store", store_path]) == 1
        assert "no stored run" in capsys.readouterr().err

    def test_diff(self, populated, capsys):
        store_path, keys = populated
        assert _run(["diff", keys[0][:12], keys[1][:12],
                     "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "scenario" in out
        assert re.search(r"\d+ field\(s\) differ", out)


class TestLsRendering:
    def test_ls_renders_missing_completion_as_dash(self, store_path, capsys):
        # two-coalition is not strongly connected: engines refuse it, so
        # the store holds a failure whose completion column must render
        # as "-", not "None".
        _run(["run", "--family", "two-coalition", "--serial",
              "--store", store_path])
        capsys.readouterr()
        assert _run(["ls", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "None" not in out
        assert "error:" in out  # the verdict column, not a diagnostic

    def test_ls_filter_matching_nothing_is_not_empty(self, store_path,
                                                     capsys):
        _run(["run", "--family", "cycle", "--grid", "n=3", "--serial",
              "--store", store_path])
        capsys.readouterr()
        assert _run(["ls", "--engine", "herlihyy",
                     "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "no runs match the filters (1 in store)" in out
        assert "empty" not in out

    def test_ls_rejects_negative_limit(self, store_path, capsys):
        assert _run(["ls", "--limit", "-3", "--store", store_path]) == 1
        captured = capsys.readouterr()
        assert "--limit must be >= 0" in captured.err
        assert captured.out == ""


class TestStats:
    @pytest.fixture
    def populated(self, store_path, capsys):
        _run(["run", "--family", "cycle", "--grid", "n=3,4",
              "--mix", "all-conforming", "--mix", "phase-crash",
              "--engine", "herlihy", "--engine", "naive-timelock",
              "--serial", "--store", store_path])
        capsys.readouterr()
        return store_path

    def test_stats_default_groups_by_engine(self, populated, capsys):
        assert _run(["stats", "--store", populated]) == 0
        out = capsys.readouterr().out
        assert "herlihy" in out and "naive-timelock" in out
        assert "all-Deal" in out and "Thm4.9-safe" in out
        assert "2 group(s) over 8 run(s)" in out

    def test_stats_multi_dimension_group_by(self, populated, capsys):
        assert _run(["stats", "--by", "engine,mix", "--store", populated]) == 0
        out = capsys.readouterr().out
        assert "all-conforming" in out and "phase-crash" in out
        assert "4 group(s) over 8 run(s)" in out

    def test_stats_engine_filter(self, populated, capsys):
        assert _run(["stats", "--engine", "herlihy", "--store", populated]) == 0
        out = capsys.readouterr().out
        assert "herlihy" in out and "naive-timelock" not in out
        assert "over 4 run(s)" in out

    def test_stats_json_schema(self, populated, capsys):
        assert _run(["stats", "--by", "family,mix", "--json",
                     "--store", populated]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["by"] == ["family", "mix"]
        assert payload["total_runs"] == 8
        assert set(payload["dimensions"]) == {"engine", "family", "mix",
                                              "params", "timing"}
        for group in payload["groups"]:
            assert set(group["group"]) == {"family", "mix"}
            assert 0.0 <= group["all_deal_rate"] <= 1.0
            assert group["runs"] >= group["ok"]

    def test_stats_compare(self, populated, capsys):
        assert _run(["stats", "--compare", "herlihy", "naive-timelock",
                     "--store", populated]) == 0
        out = capsys.readouterr().out
        assert "runs herlihy" in out and "runs naive-timelock" in out
        assert "safety" in out

    def test_stats_compare_skips_engine_in_by(self, populated, capsys):
        # --by engine,mix + --compare pivots over mix, the first
        # non-engine dimension (compare already splits by engine).
        assert _run(["stats", "--by", "engine,mix",
                     "--compare", "herlihy", "naive-timelock",
                     "--store", populated]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mix ")
        assert "phase-crash" in out

    def test_stats_filter_matching_nothing_is_not_empty(self, populated,
                                                        capsys):
        # A typo'd engine filter must not claim the store itself is empty.
        assert _run(["stats", "--engine", "herlihyy",
                     "--store", populated]) == 0
        out = capsys.readouterr().out
        assert "no runs match the filters (8 in store)" in out
        assert "empty" not in out

    def test_stats_rejects_engine_filter_with_compare(self, populated,
                                                      capsys):
        assert _run(["stats", "--engine", "herlihy",
                     "--compare", "herlihy", "naive-timelock",
                     "--store", populated]) == 1
        assert "cannot be combined" in capsys.readouterr().err

    def test_stats_rejects_unknown_dimension(self, populated, capsys):
        assert _run(["stats", "--by", "vibe", "--store", populated]) == 1
        assert "group-by dimensions" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--compare", "herlihy", "2pc"]])
    def test_stats_rejects_empty_by(self, populated, capsys, extra):
        assert _run(["stats", "--by", ",", *extra, "--store", populated]) == 1
        assert "--by needs at least one" in capsys.readouterr().err

    def test_stats_compare_rejects_typo_after_pivot(self, populated, capsys):
        # The typo'd trailing dimension must error, not be silently
        # dropped once the pivot is resolved from the first entry.
        assert _run(["stats", "--by", "family,mixx",
                     "--compare", "herlihy", "naive-timelock",
                     "--store", populated]) == 1
        assert "group-by dimensions" in capsys.readouterr().err

    def test_stats_empty_store(self, tmp_path, capsys):
        path = str(tmp_path / "empty.sqlite")
        open_store(path).close()  # exists, holds no runs
        assert _run(["stats", "--store", path]) == 0
        assert "empty" in capsys.readouterr().out

    def test_stats_empty_store_still_validates_by(self, tmp_path, capsys):
        path = str(tmp_path / "empty.sqlite")
        open_store(path).close()
        assert _run(["stats", "--by", "vibe", "--store", path]) == 1
        assert "group-by dimensions" in capsys.readouterr().err


class TestMerge:
    def test_merge_shards_matches_single_store(self, tmp_path, capsys):
        shard_a = str(tmp_path / "a.sqlite")
        shard_b = str(tmp_path / "b.jsonl")  # stores and exports merge alike
        whole = str(tmp_path / "whole.sqlite")
        merged = str(tmp_path / "merged.sqlite")
        _run(["run", "--family", "cycle", "--grid", "n=3", "--serial",
              "--store", shard_a])
        _run(["run", "--family", "cycle", "--grid", "n=4", "--serial",
              "--store", str(tmp_path / "b.sqlite")])
        _run(["export", shard_b, "--store", str(tmp_path / "b.sqlite")])
        _run(["run", "--family", "cycle", "--grid", "n=3,4", "--serial",
              "--store", whole])
        capsys.readouterr()

        assert _run(["merge", merged, shard_a, shard_b]) == 0
        out = capsys.readouterr().out
        assert "0 -> 2 run(s)" in out

        assert _run(["stats", "--by", "engine,params", "--json",
                     "--store", merged]) == 0
        from_shards = json.loads(capsys.readouterr().out)
        assert _run(["stats", "--by", "engine,params", "--json",
                     "--store", whole]) == 0
        from_whole = json.loads(capsys.readouterr().out)

        # Model-level aggregates are deterministic across executions;
        # only wall clock (measured per execution) may differ.
        def drop_wall(payload):
            for group in payload["groups"]:
                group.pop("wall_ms_total")
            return payload

        assert drop_wall(from_shards) == drop_wall(from_whole)

    def test_merge_rejects_missing_shard(self, tmp_path, capsys):
        shard = str(tmp_path / "real.sqlite")
        dest = str(tmp_path / "dest.sqlite")
        typo = str(tmp_path / "typo.sqlite")
        _run(["run", "--family", "cycle", "--grid", "n=3", "--serial",
              "--store", shard])
        capsys.readouterr()
        assert _run(["merge", dest, shard, typo]) == 1
        assert "no such shard store" in capsys.readouterr().err
        # and the typo'd path was not created as an empty junk store
        assert not (tmp_path / "typo.sqlite").exists()
        assert not (tmp_path / "dest.sqlite").exists()

    def test_merge_corrupt_shard_prevents_partial_merge(self, tmp_path,
                                                        capsys):
        good = str(tmp_path / "good.sqlite")
        corrupt = tmp_path / "corrupt.sqlite"
        corrupt.write_text("not a database\n")
        dest = tmp_path / "dest.sqlite"
        _run(["run", "--family", "cycle", "--grid", "n=3", "--serial",
              "--store", good])
        capsys.readouterr()
        # Every shard is validated before merging starts: the good
        # shard must NOT land in dest when a later shard is corrupt.
        assert _run(["merge", str(dest), good, str(corrupt)]) == 1
        captured = capsys.readouterr()
        assert "cannot open sqlite store" in captured.err
        assert "merged" not in captured.out
        if dest.exists():
            with open_store(str(dest)) as store:
                assert len(store) == 0

    def test_merge_corrupt_jsonl_shard_is_rejected(self, tmp_path, capsys):
        good = str(tmp_path / "good.sqlite")
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_bytes(b"\x00binary garbage, no decodable line\xff\n")
        dest = tmp_path / "dest.sqlite"
        _run(["run", "--family", "cycle", "--grid", "n=3", "--serial",
              "--store", good])
        capsys.readouterr()
        assert _run(["merge", str(dest), good, str(corrupt)]) == 1
        captured = capsys.readouterr()
        assert "no decodable runs" in captured.err
        assert "merged" not in captured.out  # good shard not merged either

    def test_merge_accepts_shard_torn_on_first_write(self, tmp_path, capsys):
        # A shard killed during its very first put holds one torn line
        # and no newline — a legitimate crash artifact, not garbage.
        good = str(tmp_path / "good.sqlite")
        torn = tmp_path / "torn.jsonl"
        torn.write_text('{"key": "ab", "entry": {"ok"')  # no newline
        dest = str(tmp_path / "dest.sqlite")
        _run(["run", "--family", "cycle", "--grid", "n=3", "--serial",
              "--store", good])
        capsys.readouterr()
        assert _run(["merge", dest, good, str(torn)]) == 0
        out = capsys.readouterr().out
        assert f"merged {torn}: 0 record(s) written" in out
        assert "0 -> 1 run(s)" in out

    def test_merge_is_idempotent(self, tmp_path, capsys):
        shard = str(tmp_path / "shard.sqlite")
        dest = str(tmp_path / "dest.sqlite")
        _run(["run", "--family", "cycle", "--grid", "n=3", "--serial",
              "--store", shard])
        capsys.readouterr()
        assert _run(["merge", dest, shard]) == 0
        assert "1 record(s) written" in capsys.readouterr().out
        assert _run(["merge", dest, shard]) == 0
        out = capsys.readouterr().out
        assert "0 record(s) written" in out
        assert "1 -> 1 run(s)" in out


class TestDiscovery:
    def test_families_listing_includes_impossibility(self, capsys):
        assert _run(["families"]) == 0
        out = capsys.readouterr().out
        assert "two-coalition" in out and "NO (impossibility)" in out

    def test_mixes_listing(self, capsys):
        assert _run(["mixes"]) == 0
        out = capsys.readouterr().out
        for mix in ("all-conforming", "phase-crash", "last-moment", "free-ride"):
            assert mix in out

    def test_presets_listing(self, capsys):
        assert _run(["presets"]) == 0
        out = capsys.readouterr().out
        for preset in ("smoke", "topologies", "impossibility"):
            assert preset in out
