"""E39 — a new shape's first sight, layer by layer.

A stream of new work (``perfbench``'s workloads draw a new start time
every round) sees most shapes once, so the shape memo saves it little:
each first sight pays one analysis, one transcript synthesis and the
split of the first stored entry.  This bench reports µs per first-sight
shape for each of those layers on the four fully covered shapes
``perfbench``'s ``sweep-analytic`` sweeps, and compares two of them
against in-process reference arms:

* **predict** — :func:`repro.analysis.predict.predict`, whose replay
  queues the conforming cascade in one FIFO bucket per tick, against
  the same ``predict`` with the replay that pushed one heap entry per
  event (``tests/replay_reference.py``) patched in.  The topology's
  invariants are warm on both arms (bench E32 times them cold).
* **synthesize** — the uncached transcript synthesis
  (``repro.analysis.engine._synthesize``), which builds each milestone
  once as a slotted tuple, against the same synthesis with the
  numbering of the frozen-dataclass milestones it replaced, every
  record built twice (``tests/milestone_reference.py``) patched in.
* **first entry** — ``store_entry`` of a shape's first synthesized
  copy, which splits the entry text into the shape's template
  (:func:`repro.api.sweep.split_entry_text`).  Recorded without a
  reference arm.

Each arm's output is asserted equal to the shipped one first: the
replay's publish times, unlock schedules and late sends; the report's
``to_dict()`` and its milestones' ``to_dict()``.  The arms alternate
within each of :data:`ROUNDS` rounds of :data:`CALLS` calls each; a
shape's speedup is the median of its per-round ratios (E32's sizing
method), so the machine's drift between rounds cancels.  µs per shape
are the medians of the shipped arm's rounds.  The floor is frozen in
CI: the median over the four shapes >= :data:`PREDICT_FLOOR` x for
predict and >= :data:`SYNTHESIS_FLOOR` x for synthesize.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from _tables import emit_bench_json, emit_table

from repro.analysis import engine, predict
from repro.analysis.engine import _synthesize, synthesize_run
from repro.api.scenario import Scenario
from repro.api.sweep import store_entry
from repro.lab.registry import get_family

TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))

from milestone_reference import twice_built_milestones  # noqa: E402
from replay_reference import reference_replay  # noqa: E402

ENGINE = "herlihy"
ROUNDS = 21
CALLS = 10
PREDICT_FLOOR = 1.1
SYNTHESIS_FLOOR = 1.2
#: The fully covered shapes perfbench's sweep-analytic workload sweeps.
ANALYTIC_SHAPES = (
    ("clique", {"n": 3}),
    ("clique", {"n": 5}),
    ("wheel", {"rim": 4}),
    ("erdos-renyi", {"n": 7, "p": 0.3}),
)


@contextmanager
def heap_replay():
    """``predict`` with the one-heap-entry-per-event replay."""
    shipped = predict._replay
    predict._replay = reference_replay
    try:
        yield
    finally:
        predict._replay = shipped


@contextmanager
def twice_built():
    """``_synthesize`` with the twice-built dataclass milestones."""
    shipped = engine._number_milestones
    engine._number_milestones = twice_built_milestones
    try:
        yield
    finally:
        engine._number_milestones = shipped


def _label(family: str, params: dict) -> str:
    return f"{family}:" + ",".join(f"{k}={v}" for k, v in params.items())


def _scenario(family: str, params: dict, start_time: int = 17) -> Scenario:
    topology = get_family(family).generate(params, seed=1)
    return Scenario(topology, seed=1, name=f"e39:{family}", start_time=start_time)


def _replay_view(result) -> tuple:
    """A prediction's replayed times and schedule, and its late-send
    diagnostics."""
    prediction, diagnostics = result
    return (
        list(prediction.publish_times.items()),
        list(prediction.phase_two_start.items()),
        list(prediction.unlock_schedule.items()),
        prediction.deadline_feasible,
        [diagnostic.message for diagnostic in diagnostics],
    )


def _report_view(report) -> tuple:
    return report.to_dict(), [m.to_dict() for m in report.milestones]


def _ratios(call, reference) -> tuple[list[float], list[float]]:
    """Per-round ``reference / shipped`` time ratios of :data:`CALLS`
    calls each, arms alternating, and the shipped arm's µs per call."""

    def timed(arm) -> float:
        with arm():
            start = time.perf_counter()
            for _ in range(CALLS):
                call()
            return time.perf_counter() - start

    ratios, shipped_us = [], []
    for index in range(ROUNDS):
        arms = (reference, nullcontext) if index % 2 == 0 else (nullcontext, reference)
        seconds = {arm: timed(arm) for arm in arms}
        ratios.append(seconds[reference] / seconds[nullcontext])
        shipped_us.append(seconds[nullcontext] / CALLS * 1e6)
    return ratios, shipped_us


def _first_entry_us(family: str, params: dict) -> float:
    """µs for ``store_entry`` of a first synthesized copy, median over
    :data:`ROUNDS` fresh shapes (a new start time each)."""
    times = []
    for index in range(ROUNDS):
        report = synthesize_run(ENGINE, _scenario(family, params, 100_000 + index))
        assert report is not None
        start = time.perf_counter()
        store_entry(report)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def test_first_sight_layers_meet_their_floors():
    shapes: dict[str, dict] = {}
    rows = []
    for family, params in ANALYTIC_SHAPES:
        label = _label(family, params)
        scenario = _scenario(family, params)
        result = predict.predict(scenario)
        prediction = result[0]
        with heap_replay():
            assert _replay_view(predict.predict(scenario)) == _replay_view(result)
        shipped = _synthesize(scenario, prediction)
        with twice_built():
            assert _report_view(_synthesize(scenario, prediction)) == _report_view(shipped)

        predict_ratios, predict_us = _ratios(lambda: predict.predict(scenario), heap_replay)
        synth_ratios, synth_us = _ratios(
            lambda: _synthesize(scenario, prediction), twice_built
        )
        shape = shapes[label] = {
            "arcs": scenario.digraph().arc_count(),
            "leaders": len(prediction.leaders),
            "predict_us": round(statistics.median(predict_us), 1),
            "synthesize_us": round(statistics.median(synth_us), 1),
            "first_entry_us": round(_first_entry_us(family, params), 1),
            "predict_speedup": round(statistics.median(predict_ratios), 3),
            "synthesize_speedup": round(statistics.median(synth_ratios), 3),
        }
        rows.append([
            label, f"|A|={shape['arcs']} |L|={shape['leaders']}",
            f"{shape['predict_us']:.1f} µs", f"{shape['predict_speedup']:.2f}x",
            f"{shape['synthesize_us']:.1f} µs", f"{shape['synthesize_speedup']:.2f}x",
            f"{shape['first_entry_us']:.1f} µs",
        ])
    predict_median = round(statistics.median(s["predict_speedup"] for s in shapes.values()), 3)
    synth_median = round(statistics.median(s["synthesize_speedup"] for s in shapes.values()), 3)

    emit_table(
        "E39",
        "A new shape's first sight, layer by layer (µs per shape)",
        ["shape", "size", "predict", "vs heap replay", "synthesize",
         "vs twice-built milestones", "first entry"],
        rows,
        notes=(
            "predict: bucket replay vs one heap entry per event, topology "
            "invariants warm.  synthesize: milestones built once as slotted "
            "tuples vs built twice as frozen dataclasses.  first entry: "
            "store_entry of a fresh shape's first copy (the template split), "
            "no reference arm.  Outputs asserted equal first; arms alternate "
            f"within each of {ROUNDS} rounds of {CALLS} calls; speedup is the "
            "median of per-round ratios, µs the shipped arm's median.  Floors: "
            f"median over the shapes >= {PREDICT_FLOOR}x (predict), "
            f">= {SYNTHESIS_FLOOR}x (synthesize)."
        ),
    )
    emit_bench_json(
        "E39",
        [],
        aggregates={
            "rounds": ROUNDS,
            "calls": CALLS,
            "shapes": shapes,
            "predict_median_speedup": predict_median,
            "synthesize_median_speedup": synth_median,
            "predict_floor": PREDICT_FLOOR,
            "synthesize_floor": SYNTHESIS_FLOOR,
        },
    )
    assert predict_median >= PREDICT_FLOOR, shapes
    assert synth_median >= SYNTHESIS_FLOOR, shapes
