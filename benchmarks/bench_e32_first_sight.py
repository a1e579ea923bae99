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
* **contract sizing** — the same first-sight synthesis with each swap
  contract's fixed view bytes measured the way the library did before
  (one full encode of the view per contract: the base class's
  ``fixed_state_size`` patched onto ``SwapContract`` for the arm) and
  as shipped (the size identity over the spec-shared members, measured
  once per ``SwapSpec``).  The reports are asserted equal first.  The
  two arms alternate within each of :data:`SIZING_ROUNDS` rounds of
  :data:`SIZING_CALLS` calls each; a shape's speedup is the median of
  its per-round ratios, so the machine's drift between rounds cancels.

Invariant and synthesis times are the minimum over :data:`ROUNDS`
rounds (the stable "how fast can this go" estimator, as in E25),
reference and new interleaved.  The floors are frozen in CI: the new
code >= :data:`SPEEDUP_FLOOR` x the reference on every family with
``|V| >= 5``, >= :data:`CLIQUE8_FLOOR` x on the 8-clique, and the median
sizing speedup over the four shapes >= :data:`SIZING_FLOOR` x.  Smaller
families are recorded without a floor (a few tens of µs either way).
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from _tables import emit_bench_json, emit_table

from repro.analysis.engine import _synthesize
from repro.analysis.protocol import analyze_scenario
from repro.api.scenario import Scenario
from repro.chain.contracts import Contract
from repro.core.contract import SwapContract
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
SIZING_ROUNDS = 21
SIZING_CALLS = 5
SIZING_FLOOR = 1.1
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
    """The shipped invariants on a cold memo: call with a digraph object
    that has not probed it (an object keeps the entry it probed)."""
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
        cold = _unprobed(digraph)
        start = time.perf_counter()
        _new(cold)
        new_s = min(new_s, time.perf_counter() - start)
    return reference_s, new_s


def _unprobed(digraph: Digraph) -> Digraph:
    """A digraph object of the same declaration that has not probed the memo."""
    return Digraph(list(digraph.vertices), list(digraph.arcs))


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


@contextmanager
def per_contract_encode():
    """Size each swap contract's fixed view bytes with one full encode of
    its view, as before the size identity (the base class's hook)."""
    shipped = SwapContract.__dict__["fixed_state_size"]
    SwapContract.fixed_state_size = Contract.fixed_state_size
    try:
        yield
    finally:
        SwapContract.fixed_state_size = shipped


def _sizing_ratios(family: str, params: dict) -> list[float]:
    """Per-round ``per-contract encode / shipped`` time ratios of
    :data:`SIZING_CALLS` first-sight syntheses each, arms alternating."""
    topology = get_family(family).generate(params, seed=1)
    scenario = Scenario(topology, seed=1, name=f"e32:{family}")
    prediction = analyze_scenario(scenario).prediction
    assert prediction is not None
    shipped = _synthesize(scenario, prediction)
    with per_contract_encode():
        assert _synthesize(scenario, prediction).to_dict() == shipped.to_dict()

    def timed(encode_per_contract: bool) -> float:
        with per_contract_encode() if encode_per_contract else nullcontext():
            start = time.perf_counter()
            for _ in range(SIZING_CALLS):
                _synthesize(scenario, prediction)
            return time.perf_counter() - start

    ratios = []
    for index in range(SIZING_ROUNDS):
        arms = (True, False) if index % 2 == 0 else (False, True)
        seconds = {arm: timed(arm) for arm in arms}
        ratios.append(seconds[True] / seconds[False])
    return ratios


def test_first_sight_meets_its_floors():
    families = {}
    rows = []
    for name, digraph in _topologies():
        assert _new(_unprobed(digraph)) == _reference(digraph), name
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
    sizing = {}
    for family, params in ANALYTIC_SHAPES:
        label = f"{family}:" + ",".join(f"{k}={v}" for k, v in params.items())
        synthesis[label] = round(_synthesis_us(family, params), 1)
        rows.append([f"synthesis: {label}", "first sight", "-",
                     f"{synthesis[label]:.1f} µs", "-"])
        sizing[label] = round(statistics.median(_sizing_ratios(family, params)), 3)
        rows.append([f"sizing: {label}", "first sight", "encode per contract",
                     "size identity", f"{sizing[label]:.2f}x"])
    sizing_median = round(statistics.median(sizing.values()), 3)

    emit_table(
        "E32",
        f"First sight of a new shape (min of {ROUNDS} rounds)",
        ["layer", "workload", "reference", "new", "speedup"],
        rows,
        notes=(
            "Invariants: cold diam(D) + minimum FVS + full D(u, v) table, "
            "per-pair reference search vs one sweep per source and bitmask "
            "FVS, equal answers.  Synthesis: one uncached transcript "
            "synthesis per shape.  Sizing: first-sight synthesis with one "
            "encode of each contract's view vs the size identity, median of "
            f"{SIZING_ROUNDS} per-round ratios.  Floors: >= {SPEEDUP_FLOOR}x for "
            f"|V| >= {FLOOR_MIN_VERTICES}, >= {CLIQUE8_FLOOR}x on the 8-clique, "
            f"sizing median over the shapes >= {SIZING_FLOOR}x."
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
            "sizing_rounds": SIZING_ROUNDS,
            "sizing_calls": SIZING_CALLS,
            "sizing_speedup": sizing,
            "sizing_median_speedup": sizing_median,
            "sizing_floor": SIZING_FLOOR,
        },
    )
    below = {
        name: f for name, f in families.items()
        if f["floor"] is not None and f["speedup"] < f["floor"]
    }
    assert not below, below
    assert sizing_median >= SIZING_FLOOR, sizing
