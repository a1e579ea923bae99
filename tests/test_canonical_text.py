"""A scenario's spliced canonical and shape texts, and the topology keys.

``Scenario.canonical_text()`` is spliced from the fields in their sorted
key order, calling the JSON encoder only for a non-empty container, and
``shape_text()`` is built beside it; both must equal the encoder's own
output byte for byte: ``canonical_json(canonical_dict())``, and the
same fields without the seed and the topology followed by the
topology's canonical JSON.  The scenarios cover non-ASCII and escaped
names, a leader vector or none, every ``timing`` form, chain delays,
crash plans, strategies, nested ``params`` and multigraphs.

The topology facts are found by the declaration-order ``(vertices,
arcs)`` key: two digraphs with equal sets declared in other orders
share the canonical text but not the declared text, nor the memo entry.
They share a run key too, but not yet a run: a strict expected failure
pins that the engines still read the declaration order.
"""

import json
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from first_touch_reference import PerObjectTopologyPath, reference_canonical_text
from repro.api.scenario import STRATEGIES, Scenario, _topology_text, canonical_json
from repro.api.engine import get_engine
from repro.api.sweep import _declared_topology_text, run_key
from repro.digraph.digraph import Digraph, topology_memo
from repro.digraph.generators import complete_digraph, random_strongly_connected
from repro.digraph.multigraph import MultiDigraph
from repro.sim.faults import CrashPoint, FaultPlan

PROPERTY = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Vertex names that need escaping or are not ASCII.
NAMES = ["A", "bé", "Zoë", 'q"t', "back\\slash", "tab\tx", "☃", "\U0001f600", "P00"]

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
)
PARAMS = st.dictionaries(
    st.text(max_size=5),
    st.recursive(
        SCALARS,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
        ),
        max_leaves=6,
    ),
    max_size=3,
)
TIMINGS = st.sampled_from(
    [None, "uniform", {"kind": "uniform"}, "jittered", {"kind": "jittered", "min_fraction": 0.3},
     {"kind": "stragglers", "count": 2, "violation": 2.5}]
)


@st.composite
def topologies(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    names = draw(st.permutations(NAMES))[:n]
    rng = Random(draw(st.integers(min_value=0, max_value=10_000)))
    arcs = [(u, v) for u in names for v in names if u != v and rng.random() < 0.5]
    arcs += [(names[i], names[(i + 1) % n]) for i in range(n)]
    arcs = list(dict.fromkeys(arcs))
    if draw(st.booleans()):
        extra = draw(st.lists(st.sampled_from(arcs), max_size=2))
        return MultiDigraph(names, arcs + extra)
    return Digraph(names, arcs)


@st.composite
def scenarios(draw):
    topology = draw(topologies())
    vertices = list(topology.vertices)
    simple = topology.underlying_simple() if isinstance(topology, MultiDigraph) else topology
    labels = [f"{u}->{v}" for u, v in simple.arcs]
    faults = FaultPlan()
    for party in draw(st.lists(st.sampled_from(vertices), max_size=2, unique=True)):
        point = draw(st.sampled_from([None, *CrashPoint]))
        at_time = draw(st.none() | st.integers(min_value=0, max_value=9000))
        if point is None and at_time is None:
            at_time = 0
        faults.crash(party, at_time=at_time, at_point=point)
    leaders = draw(st.none() | st.lists(st.sampled_from(vertices), max_size=3, unique=True))
    return Scenario(
        topology,
        name=draw(st.text(max_size=8)),
        leaders=None if leaders is None else tuple(leaders),
        delta=draw(st.sampled_from([1, 7, 1000])),
        timeout_slack=draw(st.integers(min_value=0, max_value=3)),
        start_time=draw(st.none() | st.integers(min_value=0, max_value=5000)),
        use_broadcast=draw(st.booleans()),
        reaction_fraction=draw(st.sampled_from([0.25, 0.2, 0.5, 1 / 3])),
        action_fraction=draw(st.sampled_from([0.25, 0.2, 0.1])),
        seed=draw(st.integers(min_value=-5, max_value=2**31)),
        exact_limit=draw(st.sampled_from([14, 3])),
        diam_override=draw(st.none() | st.integers(min_value=1, max_value=9)),
        scheme_name=draw(st.sampled_from(["hmac", "lamport", "bé"])),
        timing=draw(TIMINGS),
        faults=faults,
        strategies=draw(
            st.dictionaries(st.sampled_from(vertices), st.sampled_from(sorted(STRATEGIES)),
                            max_size=2)
        ),
        params=draw(PARAMS),
        chain_delays=draw(
            st.dictionaries(st.sampled_from(labels), st.integers(min_value=0, max_value=900),
                            max_size=3)
        ),
    )


def _expected_shape_text(scenario: Scenario) -> str:
    fields = scenario.canonical_dict()
    del fields["seed"]
    topology = fields.pop("topology")
    return canonical_json(fields) + canonical_json(topology)


@PROPERTY
@given(scenarios())
def test_spliced_texts_equal_the_encoders(scenario):
    assert scenario.canonical_text() == reference_canonical_text(scenario)
    assert scenario.shape_text() == _expected_shape_text(scenario)
    assert json.loads(scenario.canonical_text()) == scenario.canonical_dict()
    # A scenario rebuilt from its dict, on a fresh topology object, too.
    rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    assert rebuilt.canonical_text() == scenario.canonical_text()
    assert rebuilt.shape_text() == scenario.shape_text()


@PROPERTY
@given(topologies().filter(lambda t: isinstance(t, Digraph)), st.randoms(use_true_random=False))
def test_declaration_order_splits_the_declared_text_only(digraph, rng):
    vertices = list(digraph.vertices)
    arcs = list(digraph.arcs)
    rng.shuffle(vertices)
    rng.shuffle(arcs)
    other = Digraph(vertices, arcs)
    assert other == digraph
    assert _topology_text(other) == _topology_text(digraph)
    declared = json.dumps({"kind": "digraph", **other.to_dict()}, sort_keys=True)
    assert _declared_topology_text(other) == declared
    assert other.encoded_size_bytes() == digraph.encoded_size_bytes()
    if (tuple(vertices), tuple(arcs)) == (digraph.vertices, digraph.arcs):
        assert topology_memo(other) is topology_memo(digraph)
    else:
        assert _declared_topology_text(other) != _declared_topology_text(digraph)
        assert topology_memo(other) is not topology_memo(digraph)


def test_equal_sets_in_other_orders():
    forward = Digraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    shuffled = Digraph(["c", "b", "a"], [("c", "a"), ("a", "b"), ("b", "c")])
    assert forward == shuffled
    assert Scenario(forward).canonical_text() == Scenario(shuffled).canonical_text()
    assert _declared_topology_text(forward) != _declared_topology_text(shuffled)
    assert topology_memo(forward) is not topology_memo(shuffled)


@pytest.mark.xfail(
    strict=True,
    reason="with leaders=None the leader vector is a feedback vertex set taken "
    "in declaration order, so one run key names two runs",
)
def test_declaration_order_does_not_change_a_run():
    forward = complete_digraph(4)
    backward = Digraph(forward.vertices[::-1], forward.arcs[::-1])
    runs = [Scenario(topology, seed=3) for topology in (forward, backward)]
    assert run_key("herlihy", runs[0]) == run_key("herlihy", runs[1])
    leaders = [get_engine("herlihy").run(scenario).leaders for scenario in runs]
    assert leaders[0] == leaders[1]


def test_a_fresh_object_finds_the_facts_the_per_object_path_found():
    old = PerObjectTopologyPath()
    topology = random_strongly_connected(6, 0.4, Random(9))
    for _ in range(3):
        fresh = Digraph.from_checked(list(topology.vertices), list(topology.arcs))
        _, canonical, declared, size = old.touch(fresh)
        assert (_topology_text(fresh), _declared_topology_text(fresh)) == (canonical, declared)
        assert fresh.encoded_size_bytes() == size
        assert topology_memo(fresh) is topology_memo(topology)
