"""Golden corpus: the stored entry of every lab family x mix x timing.

Every registered lab family at its default parameters, crossed with
every adversary mix and every timing profile, is run as ``herlihy``
(base seed 7) through ``run_sweep`` twice: a plain serial sweep and a
``fast_path=True`` sweep.  ``tests/golden_corpus.json`` pins, per item,
the run key and the SHA-256 of the entry JSON the store records (its
``json.dumps(entry, sort_keys=True)`` form, with ``wall_seconds``
zeroed).  Any change to a report, a run key, a failure entry or the
provenance stamp shows up as a digest shift.

A second sweep, ``golden-timelock``, pins the two hashed-timelock
engines that share the §4.5 party skeleton without being ``herlihy``:
``single-leader`` and ``naive-timelock`` over the same lab grid (plain
sweep only — the fast path covers ``herlihy`` alone), plus explicit
items for every :class:`~repro.sim.faults.CrashPoint` on every vertex of
each family whose default topology has a single-vertex feedback vertex
set (under three timing profiles), and ``naive-timelock`` runs with each such vertex as ``attacker``.
It lives under its own ``timelock`` key, so the ``herlihy`` items, keys
and digests above it never move when it changes.

Regenerate only when a change to stored bytes is intended::

    PYTHONPATH=src python tests/test_golden_corpus.py --write
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

from repro.api.scenario import Scenario
from repro.api.sweep import Sweep, run_key, run_sweep
from repro.crypto.hashing import sha256
from repro.digraph.digraph import Digraph
from repro.digraph.feedback import is_feedback_vertex_set
from repro.digraph.paths import is_strongly_connected
from repro.lab.registry import (
    get_family,
    get_timing,
    list_families,
    list_mixes,
    list_timings,
)
from repro.lab.store import SqliteStore
from repro.lab.workloads import Workload, build_sweep
from repro.sim.faults import CrashPoint, FaultPlan

CORPUS = Path(__file__).with_name("golden_corpus.json")
BASE_SEED = 7
TIMELOCK_ENGINES = ("single-leader", "naive-timelock")
CRASH_TIMINGS = ("uniform", "jittered", "stragglers")


def _grid(engines, name):
    workloads = [
        Workload(
            family,
            dict(get_family(family).defaults),
            mixes=list_mixes(),
            engines=engines,
            timings=list_timings(),
        )
        for family in list_families()
    ]
    return build_sweep(workloads, name=name, base_seed=BASE_SEED)


def _sweep():
    return _grid(("herlihy",), "golden")


def _single_leader_feasible(topology) -> bool:
    return (
        isinstance(topology, Digraph)
        and is_strongly_connected(topology)
        and any(is_feedback_vertex_set(topology, {v}) for v in topology.vertices)
    )


def _timelock_sweep() -> Sweep:
    """The timelock engines over the lab grid, then crash and attacker
    items on every single-leader-feasible family's default topology."""
    sweep = _grid(TIMELOCK_ENGINES, "golden-timelock")
    topologies = {}
    for _, scenario in sweep.items():
        family = scenario.name.split(":")[1]
        topologies.setdefault(family, scenario.topology)
    for family, topology in topologies.items():
        if not _single_leader_feasible(topology):
            continue
        for vertex in topology.vertices:
            for engine in TIMELOCK_ENGINES:
                for point in CrashPoint:
                    for timing in CRASH_TIMINGS:
                        sweep.add(engine, Scenario(
                            topology=topology,
                            name=(
                                f"golden-timelock:{family}:{engine}@{timing}"
                                f":{vertex}@{point.value}"
                            ),
                            seed=BASE_SEED,
                            timing=get_timing(timing).spec,
                            faults=FaultPlan().crash(vertex, at_point=point),
                        ))
            sweep.add("naive-timelock", Scenario(
                topology=topology,
                name=f"golden-timelock:{family}:attacker={vertex}",
                seed=BASE_SEED,
                params={"attacker": vertex},
            ))
    return sweep


def _digest(entry: dict) -> str:
    entry = copy.deepcopy(entry)
    if entry.get("ok"):
        entry["report"]["wall_seconds"] = 0.0
    return sha256(json.dumps(entry, sort_keys=True).encode()).hex()


def _run(items, labels) -> tuple[dict, dict[str, list[dict]]]:
    """The corpus section of ``items`` (run keys, then one digest per
    entry under each label) and the stored entries themselves."""
    keys = [run_key(engine, scenario) for engine, scenario in items]
    corpus: dict = {
        "items": [
            {"name": scenario.name, "key": key}
            for (_, scenario), key in zip(items, keys)
        ],
    }
    entries = {}
    for label, fast_path in labels:
        store = SqliteStore(":memory:")
        run_sweep(items, parallel=False, store=store, fast_path=fast_path)
        entries[label] = [store.get(key) for key in keys]
        corpus[label] = [_digest(entry) for entry in entries[label]]
    return corpus, entries


def build_corpus() -> tuple[dict, dict[str, list[dict]]]:
    """Run the corpus sweep plain and with the fast path, then the
    timelock sweep plain; returns the corpus and the ``herlihy`` sweep's
    stored entries by label."""
    herlihy, entries = _run(_sweep().items(), (("plain", False), ("fast_path", True)))
    timelock, _ = _run(_timelock_sweep().items(), (("plain", False),))
    return {"base_seed": BASE_SEED, **herlihy, "timelock": timelock}, entries


@pytest.fixture(scope="module")
def built() -> tuple[dict, dict[str, list[dict]]]:
    return build_corpus()


@pytest.fixture(scope="module")
def observed(built) -> dict:
    return built[0]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(CORPUS.read_text())


def test_corpus_covers_every_family_mix_and_timing(golden):
    expected = len(list_families()) * len(list_mixes()) * len(list_timings())
    assert len(golden["items"]) == expected == 420
    assert len(golden["plain"]) == len(golden["fast_path"]) == expected


def test_run_keys_match(observed, golden):
    assert observed["items"] == golden["items"]


@pytest.mark.parametrize("label", ["plain", "fast_path"])
def test_stored_entries_match(observed, golden, label):
    shifted = [
        item["name"]
        for item, seen, pinned in zip(golden["items"], observed[label], golden[label])
        if seen != pinned
    ]
    assert not shifted, f"{len(shifted)} {label} entries shifted: {shifted[:5]}"


def test_fast_path_never_turns_a_refusal_into_a_success(built, golden):
    """Where the engine refuses an item (its plain entry is a failure),
    the fast-path sweep stores that very failure, byte for byte."""
    entries = built[1]
    refused = [i for i, entry in enumerate(entries["plain"]) if not entry["ok"]]
    assert refused
    differ = [
        golden["items"][i]["name"]
        for i in refused
        if entries["fast_path"][i] != entries["plain"][i]
        or golden["fast_path"][i] != golden["plain"][i]
    ]
    assert not differ, f"{len(differ)} refusals answered otherwise: {differ[:5]}"


def test_timelock_corpus_covers_grid_crashes_and_attackers(golden):
    items = golden["timelock"]["items"]
    grid = 2 * len(list_families()) * len(list_mixes()) * len(list_timings())
    assert len(items) == len(golden["timelock"]["plain"]) > grid
    explicit = [item["name"] for item in items[grid:]]
    for engine in TIMELOCK_ENGINES:
        for point in CrashPoint:
            assert any(
                f":{engine}@" in n and n.endswith(f"@{point.value}") for n in explicit
            )
    assert any(":attacker=" in n for n in explicit)


def test_timelock_run_keys_match(observed, golden):
    assert observed["timelock"]["items"] == golden["timelock"]["items"]


def test_timelock_stored_entries_match(observed, golden):
    pinned = golden["timelock"]
    shifted = [
        item["name"]
        for item, seen, want in zip(pinned["items"], observed["timelock"]["plain"], pinned["plain"])
        if seen != want
    ]
    assert not shifted, f"{len(shifted)} timelock entries shifted: {shifted[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_corpus.py --write")
    CORPUS.write_text(json.dumps(build_corpus()[0], indent=1) + "\n")
    print(f"wrote {CORPUS}")
