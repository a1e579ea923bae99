"""Golden corpus: the stored entry of every lab family x mix x timing.

Every registered lab family at its default parameters, crossed with
every adversary mix and every timing profile, is run as ``herlihy``
(base seed 7) through ``run_sweep`` twice: a plain serial sweep and a
``fast_path=True`` sweep.  ``tests/golden_corpus.json`` pins, per item,
the run key and the SHA-256 of the entry JSON the store records (its
``json.dumps(entry, sort_keys=True)`` form, with ``wall_seconds``
zeroed).  Any change to a report, a run key, a failure entry or the
provenance stamp shows up as a digest shift.

Regenerate only when a change to stored bytes is intended::

    PYTHONPATH=src python tests/test_golden_corpus.py --write
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

from repro.api.sweep import run_key, run_sweep
from repro.crypto.hashing import sha256
from repro.lab.registry import get_family, list_families, list_mixes, list_timings
from repro.lab.store import SqliteStore
from repro.lab.workloads import Workload, build_sweep

CORPUS = Path(__file__).with_name("golden_corpus.json")
BASE_SEED = 7


def _sweep():
    workloads = [
        Workload(
            family,
            dict(get_family(family).defaults),
            mixes=list_mixes(),
            engines=("herlihy",),
            timings=list_timings(),
        )
        for family in list_families()
    ]
    return build_sweep(workloads, name="golden", base_seed=BASE_SEED)


def _digest(entry: dict) -> str:
    entry = copy.deepcopy(entry)
    if entry.get("ok"):
        entry["report"]["wall_seconds"] = 0.0
    return sha256(json.dumps(entry, sort_keys=True).encode()).hex()


def build_corpus() -> dict:
    """Run the corpus sweep plain and with the fast path."""
    items = _sweep().items()
    keys = [run_key(engine, scenario) for engine, scenario in items]
    corpus: dict = {
        "base_seed": BASE_SEED,
        "items": [
            {"name": scenario.name, "key": key}
            for (_, scenario), key in zip(items, keys)
        ],
    }
    for label, fast_path in (("plain", False), ("fast_path", True)):
        store = SqliteStore(":memory:")
        run_sweep(items, parallel=False, store=store, fast_path=fast_path)
        corpus[label] = [_digest(store.get(key)) for key in keys]
    return corpus


@pytest.fixture(scope="module")
def observed() -> dict:
    return build_corpus()


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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_corpus.py --write")
    CORPUS.write_text(json.dumps(build_corpus(), indent=1) + "\n")
    print(f"wrote {CORPUS}")
