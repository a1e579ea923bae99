"""Cached encodings are byte-identical to encoding from scratch.

A covered run's text is assembled from cached parts: the run key from
the engine's prefix and the scenario's canonical text (spliced from the
topology's cached text), and the stored entry of a synthesized copy
from its shape template with the run's name, seed, timing, topology
and wall time filled in.  Over every registered family, each variant
below, two seeds and a vertex- and arc-order-permuted copy of each
topology, this module holds each of them to the plain encoding:

* ``canonical_text() == canonical_json(canonical_dict())``;
* :func:`run_key` equals the digest of ``canonical_json({"schema",
  "engine", "scenario"})`` computed here;
* the row text written by :meth:`SqliteStore.put`, by the fleet
  coordinator's chunk commit and by a serial ``run_sweep(fast_path=True)``
  equals ``json.dumps(entry, sort_keys=True)``;
* a success entry's ``milestones`` equal the counts of its report's
  milestone sequence.
"""

from __future__ import annotations

import json
import pickle
from collections import Counter

import pytest

from repro.analysis.engine import PATH_ANALYTIC, PATH_KEY
from repro.api.scenario import Scenario, canonical_json
from repro.api.sweep import (
    RUN_KEY_SCHEMA,
    EncodedEntry,
    execute_scenario,
    run_key,
    run_sweep,
    store_entry,
)
from repro.core.spec import resolve_leaders
from repro.crypto.hashing import sha256
from repro.digraph.digraph import Digraph
from repro.digraph.multigraph import MultiDigraph
from repro.errors import ReproError
from repro.fleet import FleetConfig, FleetCoordinator
from repro.lab.registry import get_family, list_families
from repro.lab.store import SqliteStore

ENGINE = "herlihy"
SEEDS = (0, 2**31 - 1)
NAMES = ("ünïcødé ✓", 'a "quoted" name', "back\\slash")


def _permuted(topology):
    """The same topology with its vertices and arcs listed in reverse."""
    if isinstance(topology, MultiDigraph):
        return MultiDigraph(list(reversed(topology.vertices)), list(reversed(topology.arcs)))
    return Digraph(list(reversed(topology.vertices)), list(reversed(topology.arcs)))


def _variants(topology) -> list[dict]:
    variants = [
        {},
        {"start_time": 17},
        {"timeout_slack": 2},
        {"params": {"leader": topology.vertices[0]}},
        {"timing": "uniform"},
        *({"name": name} for name in NAMES),
    ]
    try:
        leaders = resolve_leaders(Scenario(topology), Scenario(topology).digraph())
    except ReproError:
        pass
    else:
        variants.append({"leaders": leaders})
    return variants


def _scenarios() -> list[Scenario]:
    out = []
    for family in list_families():
        topology = get_family(family).generate({}, seed=1)
        for variant in _variants(topology):
            for seed in SEEDS:
                for listed in (topology, _permuted(topology)):
                    fields = {"name": f"enc:{family}", **variant, "seed": seed}
                    out.append(Scenario(listed, **fields))
    # Vertex names that spell the template's stand-ins: encoded in full.
    spelled = Digraph(["\x00name", "\x00seed"], [("\x00name", "\x00seed"), ("\x00seed", "\x00name")])
    out += [Scenario(spelled, seed=seed, name="enc:spelled") for seed in SEEDS]
    # A multigraph without parallel arcs is synthesized, but not from text.
    single = get_family("multigraph-cycle").generate({"copies": 1}, seed=1)
    out += [Scenario(single, seed=seed, name="enc:multigraph") for seed in SEEDS]
    return out


SCENARIOS = _scenarios()


def _row(db, key: str) -> str:
    return db.execute("SELECT entry FROM runs WHERE key = ?", (key,)).fetchone()[0]


@pytest.fixture(scope="module")
def resolved():
    """``(scenario, key, entry, report)`` per scenario, resolved as the
    fleet worker and the swap service resolve them."""
    out = []
    for scenario in SCENARIOS:
        entry, report = execute_scenario(ENGINE, scenario, fast_path=True)
        out.append((scenario, run_key(ENGINE, scenario), entry, report))
    return out


def test_the_variants_cover_both_paths(resolved):
    encoded = [e for _, _, e, _ in resolved if isinstance(e, EncodedEntry)]
    refused = [e for _, _, e, _ in resolved if not e["ok"]]
    assert len(encoded) > len(SCENARIOS) // 2 and refused
    for name in ("enc:spelled", "enc:multigraph"):
        entries = [e for s, _, e, _ in resolved if s.name == name]
        assert entries and all(e["ok"] and not isinstance(e, EncodedEntry) for e in entries)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_canonical_text_and_run_key(scenario):
    assert scenario.canonical_text() == canonical_json(scenario.canonical_dict())
    payload = {"schema": RUN_KEY_SCHEMA, "engine": ENGINE, "scenario": scenario.canonical_dict()}
    assert run_key(ENGINE, scenario) == sha256(canonical_json(payload).encode()).hex()


def test_store_put_writes_the_entry_json(resolved):
    with SqliteStore(":memory:") as store:
        for _, key, entry, _ in resolved:
            store.put(key, entry)
            assert _row(store._db, key) == json.dumps(entry, sort_keys=True)


def _distinct_key_batches(resolved) -> list[dict[str, tuple]]:
    """``resolved`` in batches of distinct run keys, in order: renamed
    and reordered scenarios share a key, and a store keeps one row per
    key, so each batch is written to a store of its own."""
    batches: list[dict[str, tuple]] = []
    for scenario, key, entry, report in resolved:
        batch = next((b for b in batches if key not in b), None)
        if batch is None:
            batches.append(batch := {})
        batch[key] = (scenario, entry, report)
    return batches


def test_fleet_commit_writes_the_entry_json(resolved, tmp_path):
    for index, batch in enumerate(_distinct_key_batches(resolved)):
        config = FleetConfig(chunk_size=len(batch))
        with FleetCoordinator(tmp_path / f"fleet{index}.sqlite", config) as fleet:
            fleet.enqueue([(ENGINE, scenario) for scenario, _, _ in batch.values()])
            claim = fleet.claim("w")
            fleet.commit_chunk(
                claim.chunk_id, "w", [(key, entry) for key, (_, entry, _) in batch.items()]
            )
            for key, (_, entry, _) in batch.items():
                assert _row(fleet._db, key) == json.dumps(entry, sort_keys=True)


def test_serial_fast_path_sweep_writes_the_entry_json(resolved):
    """``run_sweep`` records a synthesized entry without its report dict;
    its row is still the JSON of the full entry, built here from the
    report the sweep returns."""
    analytic = 0
    for batch in _distinct_key_batches(resolved):
        items = [(ENGINE, scenario) for scenario, _, _ in batch.values()]
        with SqliteStore(":memory:") as store:
            swept = run_sweep(items, parallel=False, store=store, fast_path=True)
            analytic += swept.analytic
            reports = iter(swept.reports)
            for key, (_, entry, _) in batch.items():
                if not entry["ok"]:
                    assert _row(store._db, key) == json.dumps(entry, sort_keys=True)
                    continue
                report = next(reports)
                full = {
                    "ok": True,
                    "report": report.to_dict(),
                    "milestones": dict(Counter(m.kind for m in report.milestones)),
                }
                assert _row(store._db, key) == json.dumps(full, sort_keys=True)
    assert analytic > len(resolved) // 2


def test_milestones_are_the_report_counts(resolved):
    for _, _, entry, report in resolved:
        if entry["ok"]:
            assert entry["milestones"] == dict(Counter(m.kind for m in report.milestones))


def test_an_edited_copy_is_encoded_afresh(resolved):
    scenario, _, entry, _ = next(r for r in resolved if isinstance(r[2], EncodedEntry))
    report = execute_scenario(ENGINE, scenario, fast_path=True)[1]
    assert report.extra == {PATH_KEY: PATH_ANALYTIC}
    assert isinstance(store_entry(report), EncodedEntry)
    report.stored_bytes += 1
    edited = store_entry(report)
    assert not isinstance(edited, EncodedEntry)
    assert edited["report"]["stored_bytes"] == entry["report"]["stored_bytes"] + 1
    copied = pickle.loads(pickle.dumps(entry))
    assert copied == entry and copied.text == entry.text
