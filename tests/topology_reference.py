"""Test-only reference for the exact topology invariants.

:func:`reference_longest` is the per-pair search that
``repro.digraph.paths`` ran before it filled ``D(u, v)`` a row at a
time: a BFS for reachability, then one memoised ``(vertex, visited)``
DFS per ordered pair.  :func:`reference_diameter` is its maximum over
every reachable pair.  :func:`reference_minimum_fvs` is the minimum-FVS
loop that built a :class:`~repro.digraph.digraph.Digraph` per candidate
through ``remove_vertices``.  The parity tests and bench E32 hold the
shipped code to these answers.
"""

from __future__ import annotations

from itertools import combinations

from repro.digraph.digraph import Digraph, Vertex
from repro.digraph.paths import is_acyclic, shortest_path_length
from repro.errors import DigraphError


def reference_longest(digraph: Digraph, source: Vertex, target: Vertex) -> int:
    """``D(source, target)``, exact; :class:`DigraphError` when unreachable."""
    if not digraph.has_vertex(source) or not digraph.has_vertex(target):
        raise DigraphError("unknown vertex")
    if source == target:
        return 0
    if shortest_path_length(digraph, source, target) is None:
        raise DigraphError(f"{target!r} is not reachable from {source!r}")
    index = {v: i for i, v in enumerate(digraph.vertices)}
    memo: dict[tuple[Vertex, int], int] = {}

    def best_from(v: Vertex, visited: int) -> int:
        if v == target:
            return 0
        key = (v, visited)
        cached = memo.get(key)
        if cached is not None:
            return cached
        best = -(10**9)
        for w in digraph.out_neighbors(v):
            bit = 1 << index[w]
            if visited & bit:
                continue
            candidate = best_from(w, visited | bit)
            if candidate >= 0 and candidate + 1 > best:
                best = candidate + 1
        memo[key] = best
        return best

    return best_from(source, 1 << index[source])


def reference_diameter(digraph: Digraph) -> int:
    """``diam(D)``: the longest ``D(u, v)`` over every reachable pair."""
    if digraph.arc_count() == 0:
        raise DigraphError("diameter is undefined for an arcless digraph")
    best = 0
    for source in digraph.vertices:
        for target in digraph.vertices:
            if source != target and shortest_path_length(digraph, source, target) is not None:
                best = max(best, reference_longest(digraph, source, target))
    return best


def reference_minimum_fvs(digraph: Digraph) -> set[Vertex]:
    """The first minimum FVS in vertex order, one subdigraph per candidate."""
    if is_acyclic(digraph):
        return set()
    for size in range(1, len(digraph.vertices) + 1):
        for subset in combinations(digraph.vertices, size):
            if is_acyclic(digraph.remove_vertices(subset)):
                return set(subset)
    raise AssertionError("unreachable: V(D) itself is always an FVS")
