"""Golden ``lab check`` pins: what the static analyzer says, scenario by scenario.

Two sets are analyzed as ``herlihy`` with
:func:`~repro.analysis.protocol.analyze_scenario`, exactly as ``lab
check`` does:

* every registered lab family at its default parameters (the default
  ``lab check`` sweep);
* 200 seeded sparse, chain-delayed scenarios near the deadline gate:
  random strongly connected digraphs on 3-7 vertices, reaction and
  action fractions in 0.1-0.5, and per-arc chain delays up to 1.5Δ.

``tests/golden_check.json`` pins, per scenario, the coverage, the
verdict, the diagnostic codes and ``prediction.to_dict()``.  Any change
to a prediction, a feasibility decision or a diagnostic shows up here.

``FLIPS`` names the scenarios the analyzer certifies since deadline
feasibility is read off the Phase Two replay (the expiry of the path
each unlock really carries) instead of a shortest-hop floor; each must
simulate all-Deal, byte for byte with its synthesized report.

Regenerate only when a change to the analysis is intended::

    PYTHONPATH=src python tests/test_golden_check.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from random import Random

import pytest

from repro.analysis.engine import PATH_ANALYTIC, PATH_KEY, resolve_report
from repro.analysis.protocol import COVERAGE_FULL, VERDICT_ALL_DEAL, analyze_scenario
from repro.api.engine import get_engine
from repro.api.scenario import Scenario
from repro.digraph.generators import random_strongly_connected
from repro.lab.registry import get_family, list_families
from repro.lab.workloads import Workload, build_sweep
from test_analysis_engine import comparable

GOLDEN = Path(__file__).with_name("golden_check.json")
SPARSE_COUNT = 200
DELTA = 1000

#: Sparse scenarios the shortest-hop feasibility floor refused and the
#: replay certifies (``none``/``unsupported`` -> ``full``/``all-deal``).
FLIPS = ("sparse-023",)


def family_items() -> list[tuple[str, Scenario]]:
    """The default ``lab check`` sweep: every family at its defaults."""
    workloads = [
        Workload(name, dict(get_family(name).defaults)) for name in list_families()
    ]
    return build_sweep(workloads, name="check").items()


def sparse_scenario(index: int) -> Scenario:
    """Seeded sparse chain-delayed scenario number ``index``."""
    rng = Random(index)
    n = rng.randint(3, 7)
    digraph = random_strongly_connected(n, rng.uniform(0.0, 0.3), rng)
    reaction = round(rng.uniform(0.1, 0.5), 2)
    action = round(rng.uniform(0.1, 0.5), 2)
    delays = {
        f"{u}->{v}": rng.randint(1, DELTA * 3 // 2)
        for (u, v) in digraph.arcs
        if rng.random() < 0.3
    }
    return Scenario(
        digraph,
        name=f"sparse-{index:03d}",
        seed=index,
        delta=DELTA,
        reaction_fraction=reaction,
        action_fraction=action,
        chain_delays=delays,
    )


def sparse_items() -> list[tuple[str, Scenario]]:
    return [("herlihy", sparse_scenario(i)) for i in range(SPARSE_COUNT)]


def check_entry(engine: str, scenario: Scenario) -> dict:
    analysis = analyze_scenario(scenario, engine=engine)
    entry = {
        "name": scenario.label(),
        "engine": engine,
        "coverage": analysis.coverage,
        "verdict": analysis.verdict,
        "codes": [d.code for d in analysis.diagnostics],
        "prediction": (
            None if analysis.prediction is None else analysis.prediction.to_dict()
        ),
    }
    # Normalise to the JSON form the golden file stores (tuples -> lists).
    return json.loads(json.dumps(entry))


def build_golden() -> dict:
    return {
        label: [check_entry(engine, scenario) for engine, scenario in items]
        for label, items in (("families", family_items()), ("sparse", sparse_items()))
    }


@pytest.fixture(scope="module")
def observed() -> dict:
    return build_golden()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_family_and_the_sparse_set(golden):
    assert [e["name"] for e in golden["families"]] == [
        scenario.label() for _, scenario in family_items()
    ]
    assert len(golden["families"]) == len(list_families())
    assert len(golden["sparse"]) == SPARSE_COUNT


@pytest.mark.parametrize("label", ["families", "sparse"])
def test_check_entries_match(observed, golden, label):
    shifted = [
        pinned["name"]
        for seen, pinned in zip(observed[label], golden[label])
        if seen != pinned
    ]
    assert len(observed[label]) == len(golden[label])
    assert not shifted, f"{len(shifted)} {label} entries shifted: {shifted[:5]}"


@pytest.mark.parametrize("name", FLIPS)
def test_flip_simulates_all_deal_with_byte_parity(golden, name):
    (pinned,) = [e for e in golden["sparse"] if e["name"] == name]
    assert (pinned["coverage"], pinned["verdict"]) == (COVERAGE_FULL, VERDICT_ALL_DEAL)
    scenario = sparse_scenario(int(name.rsplit("-", 1)[1]))
    analytic = resolve_report("herlihy", scenario, fast_path=True)
    simulated = get_engine("herlihy").run(scenario)
    assert analytic.extra[PATH_KEY] == PATH_ANALYTIC
    assert simulated.all_deal()
    assert comparable(analytic) == comparable(simulated)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_check.py --write")
    GOLDEN.write_text(json.dumps(build_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
