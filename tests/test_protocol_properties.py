"""Property-based protocol tests (hypothesis).

The paper's two headline guarantees, checked over *random* strongly
connected digraphs, random valid leader sets, and random crash faults:

* all-conforming runs end all-Deal within ``2·diam(D)·Δ`` (Thm. 4.7);
* under arbitrary halting faults no conforming party ends Underwater and
  every outcome stays in the acceptable set (Thm. 4.9 / Fig. 3);
* assets are always conserved and every ledger stays tamper-consistent.
"""

from random import Random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.outcomes import ACCEPTABLE_OUTCOMES
from repro.core.protocol import run_swap
from repro.digraph.feedback import is_feedback_vertex_set, minimum_feedback_vertex_set
from repro.digraph.generators import random_strongly_connected
from repro.sim.faults import CrashPoint, FaultPlan

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def swap_instances(draw, max_vertices: int = 6):
    """(digraph, leaders) pairs with leaders a random valid FVS superset."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    p = draw(st.floats(min_value=0.0, max_value=0.5))
    seed = draw(st.integers(min_value=0, max_value=5_000))
    digraph = random_strongly_connected(n, p, Random(seed))
    base = minimum_feedback_vertex_set(digraph)
    # Possibly enlarge the leader set: any FVS superset is valid.
    extras = draw(
        st.sets(st.sampled_from(sorted(digraph.vertices)), max_size=2)
    )
    leaders = tuple(v for v in digraph.vertices if v in (base | extras))
    assert is_feedback_vertex_set(digraph, set(leaders))
    return digraph, leaders


@SLOW
@given(swap_instances())
def test_all_conforming_all_deal_within_bound(instance):
    digraph, leaders = instance
    result = run_swap(digraph, leaders=leaders)
    assert result.all_deal(), result.summary()
    assert result.within_time_bound(), result.summary()
    assert result.assets_conserved()


@SLOW
@given(
    swap_instances(),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(list(CrashPoint)),
)
def test_crashes_never_drown_conforming_parties(instance, victim_index, point):
    digraph, leaders = instance
    victim = digraph.vertices[victim_index % len(digraph.vertices)]
    result = run_swap(
        digraph, leaders=leaders, faults=FaultPlan().crash(victim, at_point=point)
    )
    assert result.conforming_acceptable(), result.summary()
    assert result.assets_conserved()
    for v in result.conforming:
        assert result.outcomes[v] in ACCEPTABLE_OUTCOMES
    result.network.verify_all()


@SLOW
@given(
    swap_instances(max_vertices=5),
    st.lists(st.integers(min_value=0, max_value=20_000), min_size=1, max_size=3),
)
def test_timed_crashes_random_times(instance, times):
    digraph, leaders = instance
    plan = FaultPlan()
    for index, when in enumerate(times):
        victim = digraph.vertices[index % len(digraph.vertices)]
        plan.crash(victim, at_time=when)
    result = run_swap(digraph, leaders=leaders, faults=plan)
    assert result.conforming_acceptable(), result.summary()
    assert result.assets_conserved()


@SLOW
@given(swap_instances(max_vertices=5), st.integers(min_value=0, max_value=2))
def test_timeout_slack_preserves_guarantees(instance, slack):
    digraph, leaders = instance
    result = run_swap(digraph, leaders=leaders, timeout_slack=slack)
    assert result.all_deal()


@SLOW
@given(swap_instances(max_vertices=5))
def test_broadcast_mode_equivalent_outcomes(instance):
    digraph, leaders = instance
    plain = run_swap(digraph, leaders=leaders)
    broadcast = run_swap(digraph, leaders=leaders, use_broadcast=True)
    assert plain.all_deal() and broadcast.all_deal()
    # Broadcast never slows Phase Two down.
    assert broadcast.completion_time <= plain.completion_time
