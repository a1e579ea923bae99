"""E32 — the first sight of a new shape.

A memo only pays on the second sight; a sweep over fresh topologies
(``perfbench``'s ``sweep-analytic`` draws a new one every round) pays
the cold cost every time.  This bench commits the before/after numbers
for the two cold computations every new topology needs, plus the
synthesis every new shape needs:

* **topology invariants** — per lab family at its default params, and
  an 8-clique: ``diam(D)``, the exact minimum FVS and the full
  ``D(u, v)`` table on a cold memo.  The reference is the search the
  library shipped before (``tests/topology_reference.py``: one BFS plus
  one memoised DFS per ordered pair, one subdigraph per FVS candidate);
  the new code fills the table a row per source and tests FVS
  candidates on bitmasks.  Equal answers (every ``D(u, v)`` or its
  ``DigraphError``, the diameter, the FVS) are asserted first.
* **first-sight synthesis** — µs per uncached transcript synthesis
  (``repro.analysis.engine._synthesize``) for the four fully covered
  shapes ``perfbench`` sweeps, after their analysis has run (as on a
  first sight in a sweep).

Times are the minimum over :data:`ROUNDS` rounds (the stable "how fast
can this go" estimator, as in E25), reference and new interleaved.
The floors are frozen in CI: the new code >= :data:`SPEEDUP_FLOOR` x
the reference on every family with ``|V| >= 5``, >=
:data:`CLIQUE8_FLOOR` x on the 8-clique.  Smaller families are recorded
without a floor (a few tens of µs either way).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from _tables import emit_bench_json, emit_table

from repro.analysis.engine import _synthesize
from repro.analysis.protocol import analyze_scenario
from repro.api.scenario import Scenario
from repro.digraph import paths
from repro.digraph.digraph import Digraph
from repro.digraph.feedback import feedback_vertex_set
from repro.digraph.generators import complete_digraph
from repro.errors import DigraphError
from repro.lab.registry import get_family, list_families

TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))

from topology_reference import reference_longest, reference_minimum_fvs  # noqa: E402

ROUNDS = 9
SPEEDUP_FLOOR = 1.2
CLIQUE8_FLOOR = 3.0
#: Families at or above this size carry the floor.
FLOOR_MIN_VERTICES = 5
#: The fully covered shapes perfbench's sweep-analytic workload sweeps.
ANALYTIC_SHAPES = (
    ("clique", {"n": 3}),
    ("clique", {"n": 5}),
    ("wheel", {"rim": 4}),
    ("erdos-renyi", {"n": 7, "p": 0.3}),
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DigraphError:
        return None


def _reference(digraph: Digraph):
    table = {
        (u, v): _outcome(reference_longest, digraph, u, v)
        for u in digraph.vertices
        for v in digraph.vertices
    }
    return max(length for length in table.values() if length is not None), \
        reference_minimum_fvs(digraph), table


def _new(digraph: Digraph):
    paths._MEMO.clear()
    diam = paths.diameter(digraph)
    fvs = feedback_vertex_set(digraph)
    table = {
        (u, v): _outcome(paths.longest_path_length, digraph, u, v)
        for u in digraph.vertices
        for v in digraph.vertices
    }
    return diam, fvs, table


def _cold_pair(digraph: Digraph) -> tuple[float, float]:
    reference_s = new_s = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        _reference(digraph)
        reference_s = min(reference_s, time.perf_counter() - start)
        start = time.perf_counter()
        _new(digraph)
        new_s = min(new_s, time.perf_counter() - start)
    return reference_s, new_s


def _topologies() -> list[tuple[str, Digraph]]:
    out = []
    for name in list_families():
        digraph = get_family(name).generate({}, seed=1)
        if isinstance(digraph, Digraph) and digraph.arc_count():
            out.append((name, digraph))
    out.append(("clique-8", complete_digraph(8)))
    return out


def _synthesis_us(family: str, params: dict) -> float:
    topology = get_family(family).generate(params, seed=1)
    scenario = Scenario(topology, seed=1, name=f"e32:{family}")
    prediction = analyze_scenario(scenario).prediction
    assert prediction is not None
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        _synthesize(scenario, prediction)
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def test_first_sight_meets_its_floors():
    families = {}
    rows = []
    for name, digraph in _topologies():
        assert _new(digraph) == _reference(digraph), name
        reference_s, new_s = _cold_pair(digraph)
        n = len(digraph.vertices)
        floor = (
            CLIQUE8_FLOOR if name == "clique-8"
            else SPEEDUP_FLOOR if n >= FLOOR_MIN_VERTICES
            else None
        )
        families[name] = {
            "vertices": n,
            "arcs": digraph.arc_count(),
            "reference_us": round(reference_s * 1e6, 2),
            "new_us": round(new_s * 1e6, 2),
            "speedup": round(reference_s / new_s, 2),
            "floor": floor,
        }
        rows.append([f"invariants: {name}", f"|V|={n} |A|={digraph.arc_count()}",
                     f"{reference_s * 1e6:.1f} µs", f"{new_s * 1e6:.1f} µs",
                     f"{reference_s / new_s:.2f}x"])
    synthesis = {}
    for family, params in ANALYTIC_SHAPES:
        label = f"{family}:" + ",".join(f"{k}={v}" for k, v in params.items())
        synthesis[label] = round(_synthesis_us(family, params), 1)
        rows.append([f"synthesis: {label}", "first sight", "-",
                     f"{synthesis[label]:.1f} µs", "-"])

    emit_table(
        "E32",
        f"First sight of a new shape (min of {ROUNDS} rounds)",
        ["layer", "workload", "reference", "new", "speedup"],
        rows,
        notes=(
            "Invariants: cold diam(D) + minimum FVS + full D(u, v) table, "
            "per-pair reference search vs one sweep per source and bitmask "
            "FVS, equal answers.  Synthesis: one uncached transcript "
            f"synthesis per shape.  Floors: >= {SPEEDUP_FLOOR}x for "
            f"|V| >= {FLOOR_MIN_VERTICES}, >= {CLIQUE8_FLOOR}x on the 8-clique."
        ),
    )
    emit_bench_json(
        "E32",
        [],
        aggregates={
            "rounds": ROUNDS,
            "invariants": families,
            "speedup_floor": SPEEDUP_FLOOR,
            "clique8_floor": CLIQUE8_FLOOR,
            "floor_min_vertices": FLOOR_MIN_VERTICES,
            "synthesis_us": synthesis,
        },
    )
    below = {
        name: f for name, f in families.items()
        if f["floor"] is not None and f["speedup"] < f["floor"]
    }
    assert not below, below
