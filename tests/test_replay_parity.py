"""The per-tick bucket replay against the one-heap-entry-per-event replay.

``repro.analysis.predict._replay`` queues the conforming cascade in one
FIFO bucket per tick; ``tests/replay_reference.py`` is the replay it
replaced, with one heap entry per event ordered by ``(when, insertion
order)``.  On random strongly connected digraphs with a leader vector
that is a feedback vertex set (in vertex order, or a superset of one in
a drawn order), latencies drawn from a few small values so that many
deliveries land on the same tick (zero included, so events join the
bucket being fired), and expiries near the cascade's length so that
some sends are late, the two must return the same publish times, Phase
Two starts, unlock schedules (lock, path and landing tick, in landing
order), late sends (in the order they were found) and milestones
(numbered in firing order); and ``predict``
must give the same prediction and late-send warnings with either
replay on scenarios whose ``chain_delays`` tie deliveries.
"""

from random import Random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import predict
from repro.analysis.predict import _replay
from repro.api.scenario import Scenario
from repro.digraph.feedback import feedback_vertex_set
from repro.digraph.generators import complete_digraph, random_strongly_connected
from replay_reference import reference_replay

PARITY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def cascades(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    if draw(st.booleans()):
        digraph = complete_digraph(n)
    else:
        p = draw(st.sampled_from([0.0, 0.2, 0.5]))
        seed = draw(st.integers(min_value=0, max_value=10_000))
        digraph = random_strongly_connected(n, p, Random(seed))
    fvs = feedback_vertex_set(digraph)
    extra = draw(st.sets(st.sampled_from(digraph.vertices), max_size=2))
    leaders = [v for v in digraph.vertices if v in fvs | extra]
    leaders = draw(st.permutations(leaders))
    # Few distinct latencies, so that routes tie on a tick.
    choices = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3))
    latency = {arc: draw(st.sampled_from(choices)) for arc in digraph.arcs}
    action = draw(st.integers(min_value=0, max_value=2))
    start = draw(st.integers(min_value=0, max_value=5))
    delta = draw(st.integers(min_value=1, max_value=4))
    expiry = start + draw(st.integers(min_value=0, max_value=12))
    return digraph, tuple(leaders), latency, action, start, delta, expiry


def _ordered(result):
    publish, phase_two, schedule, late, milestones = result
    return (
        list(publish.items()),
        list(phase_two.items()),
        list(schedule.items()),
        list(late.items()),
        milestones,
    )


@PARITY
@given(cascades())
def test_bucket_replay_equals_heap_replay(case):
    assert _ordered(_replay(*case)) == _ordered(reference_replay(*case))


DELTA = 1000


@st.composite
def tied_scenarios(draw):
    """Scenarios whose chain delays are a few multiples of the action
    delay, so that relayed secrets reach parties on the same tick."""
    n = draw(st.integers(min_value=3, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    digraph = random_strongly_connected(n, draw(st.sampled_from([0.2, 0.5])), Random(seed))
    labels = [f"{u}->{v}" for u, v in digraph.arcs]
    delays = draw(st.dictionaries(st.sampled_from(labels), st.sampled_from([0, 250, 500])))
    return Scenario(
        digraph, seed=1, delta=DELTA, reaction_fraction=0.25, action_fraction=0.25,
        chain_delays=delays,
    )


def _prediction_view(result):
    prediction, diagnostics = result
    return (
        prediction.to_dict(),
        list(prediction.unlock_schedule.items()),
        prediction.milestones,
        [diagnostic.message for diagnostic in diagnostics],
    )


@PARITY
@given(tied_scenarios())
def test_predict_is_unchanged_by_the_bucket_replay(scenario):
    shipped = _prediction_view(predict.predict(scenario))
    original = predict._replay
    predict._replay = reference_replay
    try:
        reference = _prediction_view(predict.predict(scenario))
    finally:
        predict._replay = original
    assert shipped == reference


def test_same_tick_ties_are_exercised():
    """A zero-latency cascade with three leaders on a 4-clique: every
    delivery lands on the tick it was sent, so the order inside a
    bucket decides which path each party learns first."""
    digraph = complete_digraph(4)
    leaders = ("P00", "P01", "P02")
    latency = {arc: 0 for arc in digraph.arcs}
    ours = _ordered(_replay(digraph, leaders, latency, 0, 0, 1, 0))
    assert ours == _ordered(reference_replay(digraph, leaders, latency, 0, 0, 1, 0))
    schedule = dict(ours[2])
    assert all(when == 0 for unlocks in schedule.values() for _, _, when in unlocks)
    # Some lock reaches some arc by a relayed path, not only from its leader.
    assert any(len(path) > 1 for unlocks in schedule.values() for _, path, _ in unlocks)
    assert ours[3], "every send at tick 0 is at or past an expiry of 0"
