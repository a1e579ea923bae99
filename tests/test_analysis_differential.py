"""Differential property test: the analyzer's coverage claim vs the simulator.

Random conforming uniform-timing scenarios near the deadline-feasibility
gate — strongly connected digraphs on 3-7 vertices, reaction and action
fractions in 0.1-0.5, per-arc chain delays up to 1.5Δ and a little
timeout slack — go through :func:`~repro.analysis.protocol
.analyze_scenario` and the ``herlihy`` simulator.  The analyzer must
claim ``coverage="full"`` exactly when the simulator ends all-Deal, and
then the synthesized report must equal the simulated one byte for byte
(modulo ``wall_seconds`` and the ``extra["path"]`` stamp).

The budget is small and derandomized so the tier-1 run is fixed and
fast.
"""

from random import Random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.engine import synthesize_report
from repro.analysis.protocol import COVERAGE_FULL, analyze_scenario
from repro.api.engine import get_engine
from repro.api.scenario import Scenario
from repro.digraph.generators import random_strongly_connected
from test_analysis_engine import comparable

DELTA = 1000

DIFFERENTIAL = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def near_gate_scenarios(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    p = draw(st.floats(min_value=0.0, max_value=0.4))
    digraph = random_strongly_connected(
        n, p, Random(draw(st.integers(min_value=0, max_value=10_000)))
    )
    labels = [f"{u}->{v}" for u, v in digraph.arcs]
    delays = draw(
        st.dictionaries(
            st.sampled_from(labels),
            st.integers(min_value=1, max_value=DELTA * 3 // 2),
            max_size=3,
        )
    )
    return Scenario(
        digraph,
        seed=draw(st.integers(min_value=0, max_value=999)),
        delta=DELTA,
        reaction_fraction=draw(st.integers(min_value=10, max_value=50)) / 100,
        action_fraction=draw(st.integers(min_value=10, max_value=50)) / 100,
        timeout_slack=draw(st.integers(min_value=0, max_value=1)),
        chain_delays=delays,
    )


@DIFFERENTIAL
@given(near_gate_scenarios())
def test_full_coverage_iff_simulated_all_deal(scenario):
    analysis = analyze_scenario(scenario)
    simulated = get_engine("herlihy").run(scenario)
    assert (analysis.coverage == COVERAGE_FULL) == simulated.all_deal(), [
        d.message for d in analysis.diagnostics
    ]
    if analysis.coverage == COVERAGE_FULL:
        synthesized = synthesize_report(scenario, analysis.prediction)
        assert comparable(synthesized) == comparable(simulated)
