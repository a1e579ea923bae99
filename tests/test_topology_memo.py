"""The per-topology memo behind diam(D), D(u, v) and the leader FVS.

Memoised answers must equal fresh computations, stay distinct for
digraphs that differ only in vertex order, survive callers mutating
what they were handed, and never hold more than the LRU bound.
"""

import json
import sys
import threading
from random import Random

import pytest

from repro.digraph import paths
from repro.digraph.digraph import FEEDBACK_SETS_LIMIT, Digraph
from repro.digraph.feedback import (
    feedback_vertex_set,
    greedy_feedback_vertex_set,
    minimum_feedback_vertex_set,
    require_feedback_vertex_set,
)
from repro.digraph.generators import (
    cycle_digraph,
    not_strongly_connected_example,
    random_strongly_connected,
)
from repro.digraph.paths import (
    TOPOLOGY_MEMO_LIMIT,
    diameter,
    is_acyclic,
    is_strongly_connected,
    longest_path,
    longest_path_length,
    strongly_connected_components,
    topology_memo,
)
from repro.errors import DigraphError, NotFeedbackVertexSetError

SEEDED = [
    random_strongly_connected(n, p, Random(seed))
    for seed, (n, p) in enumerate(
        [(3, 0.3), (4, 0.2), (5, 0.3), (6, 0.2), (6, 0.5), (7, 0.15), (7, 0.3), (8, 0.2)]
    )
]


def uncached_longest(digraph, source, target):
    """D(u, v) by enumerating every simple path (no memo involved)."""
    return len(longest_path(digraph, source, target)) - 1


@pytest.mark.parametrize("digraph", SEEDED, ids=lambda d: f"n{len(d.vertices)}a{d.arc_count()}")
def test_memoised_answers_equal_uncached(digraph):
    pairs = [(u, v) for u in digraph.vertices for v in digraph.vertices if u != v]
    expected = {pair: uncached_longest(digraph, *pair) for pair in pairs}
    for _ in range(2):  # cold, then served from the memo
        assert diameter(digraph) == max(expected.values())
        for pair, length in expected.items():
            assert longest_path_length(digraph, *pair) == length
        assert feedback_vertex_set(digraph) == minimum_feedback_vertex_set(digraph)
        assert feedback_vertex_set(digraph, exact_limit=2) == greedy_feedback_vertex_set(digraph)
        assert diameter(digraph, exact_limit=2) == len(digraph.vertices) - 1


CONNECTIVITY = SEEDED + [
    not_strongly_connected_example(),
    Digraph(["a", "b", "c"], [("a", "b"), ("b", "c")]),  # a reaches all, none reach a
    Digraph(["a", "b", "c"], [("b", "a"), ("c", "b")]),  # all reach a, a reaches none
    Digraph(["a", "b", "c", "d"], [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")]),
]


def _label(digraph):
    """The vertex tuple's repr, then the arcs as vertex-index pairs."""
    index = {v: i for i, v in enumerate(digraph.vertices)}
    return repr(digraph.vertices) + "".join(f"{index[u]}>{index[v]};" for u, v in digraph.arcs)


def _rebuilt(digraph):
    """A new object of the same declaration: it has not probed the memo."""
    return Digraph(list(digraph.vertices), list(digraph.arcs))


@pytest.mark.parametrize("digraph", CONNECTIVITY, ids=lambda d: _label(d)[:24])
def test_memoised_strong_connectivity_equals_fresh(digraph):
    paths._MEMO.pop((digraph.vertices, digraph.arcs), None)
    cold = _rebuilt(digraph)
    fresh = len(strongly_connected_components(digraph)) == 1
    for _ in range(2):  # cold, then served from the memo
        assert is_strongly_connected(cold) is fresh
        assert topology_memo(cold).strongly_connected is fresh
    rebuilt = _rebuilt(digraph)
    assert is_strongly_connected(rebuilt) is fresh
    assert topology_memo(rebuilt) is topology_memo(cold)


def test_vertex_order_is_part_of_the_key():
    forward = Digraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    shuffled = Digraph(["b", "a", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert forward == shuffled  # equal as digraphs, distinct as memo keys
    assert feedback_vertex_set(forward) == {"a"}
    assert feedback_vertex_set(shuffled) == {"b"}
    assert feedback_vertex_set(forward) == {"a"}
    assert topology_memo(forward) is not topology_memo(shuffled)


@pytest.mark.parametrize("digraph", SEEDED, ids=lambda d: f"n{len(d.vertices)}a{d.arc_count()}")
def test_memoised_fvs_checks_equal_fresh(digraph):
    """Every candidate set of up to two vertices, checked twice (cold,
    then from the entry's feedback sets, which keep only a few), gets
    the answer of removing it and testing the rest for a cycle."""
    vertices = digraph.vertices
    candidates = [set()] + [{v} for v in vertices] + [
        {u, v} for i, u in enumerate(vertices) for v in vertices[i + 1:]
    ]
    for candidate in candidates * 2:
        fresh = is_acyclic(digraph.remove_vertices(candidate))
        for holder in (digraph, _rebuilt(digraph)):
            try:
                require_feedback_vertex_set(holder, candidate)
            except NotFeedbackVertexSetError:
                assert not fresh, candidate
            else:
                assert fresh, candidate
        assert len(topology_memo(digraph).feedback_sets) <= FEEDBACK_SETS_LIMIT
    with pytest.raises(DigraphError, match="unknown vertex"):
        require_feedback_vertex_set(digraph, {vertices[0], "nobody"})


def test_mutating_a_returned_fvs_does_not_poison_the_memo():
    digraph = SEEDED[4]
    first = feedback_vertex_set(digraph)
    expected = set(first)
    first.clear()
    first.add("nobody")
    assert feedback_vertex_set(digraph) == expected
    greedy = feedback_vertex_set(digraph, exact_limit=1)
    greedy_expected = set(greedy)
    greedy.add("nobody")
    assert feedback_vertex_set(digraph, exact_limit=1) == greedy_expected


def test_unreachable_pair_raises_from_cold_and_warm_memo():
    digraph = not_strongly_connected_example()
    for _ in range(2):
        with pytest.raises(DigraphError, match="not reachable"):
            longest_path_length(digraph, "Y0", "X0")
        with pytest.raises(DigraphError, match="not reachable"):
            longest_path_length(digraph, "Y0", "X0", exact_limit=1)
    assert longest_path_length(digraph, "X1", "Y1") == 3


def test_memo_never_grows_past_its_bound():
    keep = cycle_digraph(3, prefix="keep")
    diameter(keep)
    for i in range(TOPOLOGY_MEMO_LIMIT + 40):
        digraph = cycle_digraph(3, prefix=f"bound{i}-")
        assert diameter(digraph) == 2
        feedback_vertex_set(digraph)
        assert len(paths._MEMO) <= TOPOLOGY_MEMO_LIMIT
        if i % 16 == 0:
            # Recently probed entries survive eviction (an object probes
            # once, so a new one of the same declaration does).
            diameter(_rebuilt(keep))
    assert (keep.vertices, keep.arcs) in paths._MEMO
    assert len(paths._MEMO) == TOPOLOGY_MEMO_LIMIT
    # An object keeps its entry after the memo evicted it.
    entry = topology_memo(digraph)
    for i in range(TOPOLOGY_MEMO_LIMIT):
        diameter(cycle_digraph(3, prefix=f"churn{i}-"))
    assert (digraph.vertices, digraph.arcs) not in paths._MEMO
    assert topology_memo(digraph) is entry and diameter(digraph) == 2


def test_topology_key_is_injective_over_awkward_names():
    tricky = [
        Digraph(["a", "b"], [("a", "b"), ("b", "a")]),
        Digraph(["a'", "b"], [("a'", "b"), ("b", "a'")]),
        Digraph(["a)0>1;", "b"], [("a)0>1;", "b"), ("b", "a)0>1;")]),
        Digraph(["a", "b", "0>1;"], [("a", "b"), ("b", "a")]),
        Digraph(["a", "b"], [("b", "a"), ("a", "b")]),
    ]
    assert len({id(topology_memo(d)) for d in tricky}) == len(tricky)
    rebuilt = Digraph(list(tricky[2].vertices), list(tricky[2].arcs))
    assert topology_memo(rebuilt) is topology_memo(tricky[2])


def test_concurrent_callers_under_constant_eviction():
    """More threads than cores hammer the memo with more topologies than
    it holds, so lookups, inserts and evictions interleave."""
    graphs = [cycle_digraph(3 + i % 4, prefix=f"race{i}-") for i in range(TOPOLOGY_MEMO_LIMIT + 64)]
    errors: list[BaseException] = []

    def hammer(offset: int) -> None:
        try:
            for i in range(len(graphs)):
                digraph = graphs[(i * 7 + offset) % len(graphs)]
                if i % 3 == 0:  # a fresh object probes the memo itself
                    digraph = Digraph(list(digraph.vertices), list(digraph.arcs))
                n = len(digraph.vertices)
                assert diameter(digraph) == n - 1
                assert longest_path_length(digraph, digraph.vertices[0], digraph.vertices[-1]) == n - 1
                assert feedback_vertex_set(digraph) == {digraph.vertices[0]}
                # More leader sets than an entry keeps, so checks and
                # resets of its feedback sets interleave.
                leaders = {digraph.vertices[(i + offset) % n], digraph.vertices[offset % n]}
                require_feedback_vertex_set(digraph, leaders)
                with pytest.raises(NotFeedbackVertexSetError):
                    require_feedback_vertex_set(digraph, set())
                assert digraph.encoded_size_bytes() == len(
                    json.dumps(digraph.to_dict(), separators=(",", ":")).encode()
                )
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    assert len(paths._MEMO) <= TOPOLOGY_MEMO_LIMIT
