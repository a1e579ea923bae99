"""The row-at-a-time ``D(u, v)`` sweep and the bitmask minimum FVS
against the per-pair and per-subdigraph reference searches.

Seeded random digraphs, many of them not strongly connected (so some
pairs are unreachable and must raise the same :class:`DigraphError`),
each also tried under shuffled vertex and arc orders: the FVS answer is
the first minimum subset *in vertex order*, so a permutation may change
it, and both implementations must change it the same way.
"""

from random import Random

import pytest
from topology_reference import reference_diameter, reference_longest, reference_minimum_fvs

from repro.digraph.digraph import Digraph
from repro.digraph.feedback import feedback_vertex_set, minimum_feedback_vertex_set
from repro.digraph.generators import complete_digraph, not_strongly_connected_example
from repro.digraph.paths import diameter, is_strongly_connected, longest_path_length
from repro.errors import DigraphError


def _random_digraph(rng: Random, label: str) -> Digraph:
    n = rng.randint(2, 8)
    p = rng.choice((0.15, 0.3, 0.5, 0.8))
    vertices = [f"{label}v{i}" for i in range(n)]
    arcs = [(u, v) for u in vertices for v in vertices if u != v and rng.random() < p]
    return Digraph(vertices, arcs)


def _permuted(digraph: Digraph, rng: Random) -> Digraph:
    vertices, arcs = list(digraph.vertices), list(digraph.arcs)
    rng.shuffle(vertices)
    rng.shuffle(arcs)
    return Digraph(vertices, arcs)


def _corpus() -> list[Digraph]:
    rng = Random(20181)
    graphs = [not_strongly_connected_example(), complete_digraph(6)]
    for i in range(60):
        digraph = _random_digraph(rng, f"g{i}")
        graphs.append(digraph)
        graphs.extend(_permuted(digraph, rng) for _ in range(2))
    return graphs


CORPUS = _corpus()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DigraphError as error:
        return ("DigraphError", str(error))


def test_corpus_mixes_connectivity():
    connected = sum(is_strongly_connected(d) for d in CORPUS)
    assert 10 < connected < len(CORPUS) - 10


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_longest_paths_and_diameter_match_reference(index):
    digraph = CORPUS[index]
    for _ in range(2):  # cold, then from the memo
        for u in digraph.vertices:
            for v in digraph.vertices:
                assert _outcome(longest_path_length, digraph, u, v) == _outcome(
                    reference_longest, digraph, u, v
                ), (u, v)
        assert _outcome(diameter, digraph) == _outcome(reference_diameter, digraph)


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_minimum_fvs_matches_reference(index):
    digraph = CORPUS[index]
    expected = reference_minimum_fvs(digraph)
    assert minimum_feedback_vertex_set(digraph) == expected
    assert feedback_vertex_set(digraph) == expected


def test_diameter_first_when_table_is_cold():
    # diameter fills every row at once; pair queries afterwards read it.
    digraph = Digraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    assert diameter(digraph) == reference_diameter(digraph) == 3
    assert longest_path_length(digraph, "a", "d") == 3
    with pytest.raises(DigraphError, match="not reachable"):
        longest_path_length(digraph, "d", "a")


def test_inexact_branch_keeps_its_reachability_check():
    digraph = not_strongly_connected_example()
    with pytest.raises(DigraphError, match="not reachable"):
        longest_path_length(digraph, "Y0", "X0", exact_limit=1)
    assert longest_path_length(digraph, "X1", "Y1", exact_limit=1) == len(digraph.vertices) - 1
