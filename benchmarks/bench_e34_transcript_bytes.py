"""E34 — transcript bytes counted per arc, not per record.

First-sight synthesis (``repro.analysis.engine._synthesize``) reproduces
the conforming run's ``published_bytes`` and ``stored_bytes``.  The
reference (``tests/transcript_reference.py``) builds all
``|A|·(|L| + 4)`` ledger records, one contract state view each, and
encodes them in one pass; the new code sizes every record with the
chain layer's sizing functions, encoding one state view per arc (its
contract's fixed members) and nothing else.  This bench times one
uncached synthesis per shape on the
four fully covered shapes ``perfbench``'s ``sweep-analytic`` workload
sweeps, plus an 8-clique (``|L| = 7``), after their analysis has run
(as on a first sight in a sweep).

Equal reports (``to_dict()``, bytes included) are asserted first.
Times are the minimum over :data:`ROUNDS` rounds (the stable "how fast
can this go" estimator, as in E25/E32), reference and new interleaved.
The floor is frozen in CI: the new code >= :data:`CLIQUE_FLOOR` x the
reference on both cliques with ``|L| >= 4``; the other shapes are
recorded without a floor.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from _tables import emit_bench_json, emit_table

from repro.analysis.engine import _synthesize
from repro.analysis.protocol import analyze_scenario
from repro.api.scenario import Scenario
from repro.digraph.generators import complete_digraph
from repro.lab.registry import get_family

TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))

from transcript_reference import reference_synthesize  # noqa: E402

ROUNDS = 15
CLIQUE_FLOOR = 1.3
#: Shapes that carry the floor.
FLOORED = ("clique:n=5", "clique-8")
#: The fully covered shapes of perfbench's sweep-analytic workload
#: (``perfbench/workloads.py`` ``ANALYTIC_FAMILIES``), copied.
ANALYTIC_SHAPES = (
    ("clique", {"n": 3}),
    ("clique", {"n": 5}),
    ("wheel", {"rim": 4}),
    ("erdos-renyi", {"n": 7, "p": 0.3}),
)


def _shapes() -> list[tuple[str, Scenario]]:
    out = []
    for family, params in ANALYTIC_SHAPES:
        label = f"{family}:" + ",".join(f"{k}={v}" for k, v in params.items())
        topology = get_family(family).generate(params, seed=1)
        out.append((label, Scenario(topology, seed=1, name=f"e34:{label}")))
    out.append(("clique-8", Scenario(complete_digraph(8), seed=1, name="e34:clique-8")))
    return out


def _pair_us(scenario: Scenario, prediction) -> tuple[float, float]:
    reference_s = new_s = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        reference_synthesize(scenario, prediction)
        reference_s = min(reference_s, time.perf_counter() - start)
        start = time.perf_counter()
        _synthesize(scenario, prediction)
        new_s = min(new_s, time.perf_counter() - start)
    return reference_s * 1e6, new_s * 1e6


def test_transcript_bytes_meet_their_floor():
    shapes = {}
    rows = []
    for label, scenario in _shapes():
        prediction = analyze_scenario(scenario).prediction
        assert prediction is not None, label
        new = _synthesize(scenario, prediction)
        assert new.to_dict() == reference_synthesize(scenario, prediction).to_dict(), label
        reference_us, new_us = _pair_us(scenario, prediction)
        digraph = scenario.digraph()
        shapes[label] = {
            "vertices": len(digraph.vertices),
            "arcs": digraph.arc_count(),
            "leaders": len(prediction.leaders),
            "published_bytes": new.published_bytes,
            "reference_us": round(reference_us, 1),
            "new_us": round(new_us, 1),
            "speedup": round(reference_us / new_us, 2),
            "floor": CLIQUE_FLOOR if label in FLOORED else None,
        }
        rows.append([
            label,
            f"|A|={digraph.arc_count()} |L|={len(prediction.leaders)}",
            f"{reference_us:.1f} µs",
            f"{new_us:.1f} µs",
            f"{reference_us / new_us:.2f}x",
        ])

    emit_table(
        "E34",
        f"Transcript bytes per arc (min of {ROUNDS} rounds)",
        ["shape", "size", "reference", "new", "speedup"],
        rows,
        notes=(
            "One uncached _synthesize per shape: every record built and "
            "encoded (reference) vs every record sized by the chain layer's "
            "functions (new), equal reports.  Floor: >= "
            f"{CLIQUE_FLOOR}x on {', '.join(FLOORED)}."
        ),
    )
    emit_bench_json(
        "E34",
        [],
        aggregates={
            "rounds": ROUNDS,
            "clique_floor": CLIQUE_FLOOR,
            "floored": list(FLOORED),
            "shapes": shapes,
        },
    )
    below = {
        label: shape for label, shape in shapes.items()
        if shape["floor"] is not None and shape["speedup"] < shape["floor"]
    }
    assert not below, below
