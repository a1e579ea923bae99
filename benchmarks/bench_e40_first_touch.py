"""E40 — a new scenario's first touch.

Every scenario a sweep, the fleet worker or the swap service takes in
arrives with its own :class:`~repro.digraph.digraph.Digraph` object, so
whatever it needs of its topology and its own canonical text is paid
per scenario, memo hits included.  This bench times the two parts of
that first touch on the four fully covered shapes ``perfbench``'s
``sweep-analytic`` sweeps, each against an in-process reference arm
(``tests/first_touch_reference.py``):

* **canonical text** — :meth:`Scenario.canonical_text` of a fresh
  scenario, spliced from its fields with the JSON encoder called only
  for non-empty containers (and its shape text built beside it),
  against ``canonical_json(canonical_dict())``.
* **topology lookups** — a fresh digraph object of a known topology
  asks for its memo entry, canonical and declared JSON texts and
  encoded size: one probe of the memo by the declaration-order tuples,
  then attribute reads, against the per-object path those lookups took
  before (a string key built per object, a memo probe by it, an
  ``lru_cache`` keyed by digraph equality, a second table keyed by the
  string, one ``json.dumps`` per object for the size).

Outputs are asserted equal first: the texts byte for byte, the sizes.
Fresh objects are built before each timed batch.  The arms alternate
within each of :data:`ROUNDS` rounds of :data:`BATCH` objects; a
shape's speedup is the median of its per-round ratios (E39's method),
so the machine's drift between rounds cancels, and µs per object are
the shipped arm's median.  The floor is frozen in CI: the median over
the four shapes >= :data:`CANONICAL_FLOOR` x for the canonical text and
>= :data:`TOPOLOGY_FLOOR` x for the topology lookups.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

from _tables import emit_bench_json, emit_table

from repro.api.scenario import Scenario, _topology_text
from repro.api.sweep import _declared_topology_text
from repro.digraph.digraph import Digraph, topology_memo
from repro.lab.registry import get_family

TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))

from first_touch_reference import (  # noqa: E402
    PerObjectTopologyPath,
    reference_canonical_text,
)

ROUNDS = 21
BATCH = 40
CANONICAL_FLOOR = 1.5
TOPOLOGY_FLOOR = 4.0
#: The fully covered shapes perfbench's sweep-analytic workload sweeps.
ANALYTIC_SHAPES = (
    ("clique", {"n": 3}),
    ("clique", {"n": 5}),
    ("wheel", {"rim": 4}),
    ("erdos-renyi", {"n": 7, "p": 0.3}),
)


def _label(family: str, params: dict) -> str:
    return f"{family}:" + ",".join(f"{k}={v}" for k, v in params.items())


def _fresh_digraph(topology: Digraph) -> Digraph:
    """A new object of ``topology``'s declaration, as a decoded or
    generated scenario brings."""
    return Digraph.from_checked(list(topology.vertices), list(topology.arcs))


def _fresh_scenarios(topology: Digraph, round_index: int) -> list[Scenario]:
    return [
        Scenario(
            _fresh_digraph(topology),
            name=f"e40#{round_index}.{copy}",
            seed=round_index * 1000 + copy,
            start_time=17 + round_index,
        )
        for copy in range(BATCH)
    ]


def _shipped_touch(digraph: Digraph) -> tuple:
    return (
        topology_memo(digraph),
        _topology_text(digraph),
        _declared_topology_text(digraph),
        digraph.encoded_size_bytes(),
    )


def _ratios(make, shipped, reference) -> tuple[list[float], list[float]]:
    """Per-round ``reference / shipped`` time ratios over a fresh batch
    each, arms alternating, and the shipped arm's µs per object."""

    def timed(call, round_index: int) -> float:
        batch = make(round_index)
        start = time.perf_counter()
        for item in batch:
            call(item)
        return time.perf_counter() - start

    ratios, shipped_us = [], []
    for index in range(ROUNDS):
        arms = (reference, shipped) if index % 2 == 0 else (shipped, reference)
        seconds = {arm: timed(arm, index) for arm in arms}
        ratios.append(seconds[reference] / seconds[shipped])
        shipped_us.append(seconds[shipped] / BATCH * 1e6)
    return ratios, shipped_us


def test_first_touch_meets_its_floors():
    old = PerObjectTopologyPath()
    shapes: dict[str, dict] = {}
    rows = []
    for family, params in ANALYTIC_SHAPES:
        label = _label(family, params)
        topology = get_family(family).generate(params, seed=1)
        for scenario in _fresh_scenarios(topology, -1):
            assert scenario.canonical_text() == reference_canonical_text(scenario)
        for digraph in (topology, _fresh_digraph(topology), _fresh_digraph(topology)):
            assert _shipped_touch(digraph)[1:] == old.touch(digraph)[1:]

        canonical_ratios, canonical_us = _ratios(
            lambda index: _fresh_scenarios(topology, index),
            Scenario.canonical_text,
            reference_canonical_text,
        )
        topology_ratios, topology_us = _ratios(
            lambda index: [_fresh_digraph(topology) for _ in range(BATCH)],
            _shipped_touch,
            old.touch,
        )
        shape = shapes[label] = {
            "arcs": topology.arc_count(),
            "canonical_us": round(statistics.median(canonical_us), 2),
            "topology_us": round(statistics.median(topology_us), 2),
            "canonical_speedup": round(statistics.median(canonical_ratios), 3),
            "topology_speedup": round(statistics.median(topology_ratios), 3),
        }
        rows.append([
            label, f"|A|={shape['arcs']}",
            f"{shape['canonical_us']:.2f} µs", f"{shape['canonical_speedup']:.2f}x",
            f"{shape['topology_us']:.2f} µs", f"{shape['topology_speedup']:.2f}x",
        ])
    canonical_median = round(statistics.median(s["canonical_speedup"] for s in shapes.values()), 3)
    topology_median = round(statistics.median(s["topology_speedup"] for s in shapes.values()), 3)

    emit_table(
        "E40",
        "A new scenario's first touch (µs per fresh object)",
        ["shape", "size", "canonical text", "vs canonical_json(canonical_dict())",
         "topology lookups", "vs per-object path"],
        rows,
        notes=(
            "canonical text: a fresh scenario's canonical_text() (spliced, with "
            "its shape text) vs canonical_json(canonical_dict()).  topology "
            "lookups: memo entry, canonical and declared texts and encoded size "
            "of a fresh digraph object of a known topology vs the per-object "
            "path (string key, lru_cache by equality, second table, json.dumps "
            "per object).  Outputs asserted equal first; fresh objects built "
            f"before each batch of {BATCH}; arms alternate within each of "
            f"{ROUNDS} rounds; speedup is the median of per-round ratios, µs "
            f"the shipped arm's median.  Floors: median over the shapes >= "
            f"{CANONICAL_FLOOR}x (canonical text), >= {TOPOLOGY_FLOOR}x "
            "(topology lookups)."
        ),
    )
    emit_bench_json(
        "E40",
        [],
        aggregates={
            "rounds": ROUNDS,
            "batch": BATCH,
            "shapes": shapes,
            "canonical_median_speedup": canonical_median,
            "topology_median_speedup": topology_median,
            "canonical_floor": CANONICAL_FLOOR,
            "topology_floor": TOPOLOGY_FLOOR,
        },
    )
    assert canonical_median >= CANONICAL_FLOOR, shapes
    assert topology_median >= TOPOLOGY_FLOOR, shapes
