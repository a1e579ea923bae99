"""Reachability, strong connectivity, and longest-path computations.

The paper's ``D(u, v)`` is the length of the *longest* (simple) path from
``u`` to ``v``, and ``diam(D)`` the longest path between any ordered pair.
Longest simple path is NP-hard in general; swap digraphs are small, so we
compute it exactly up to a configurable size and fall back to the safe
upper bound ``|V| - 1`` beyond it.  Timeouts derived from an upper bound
remain safe and live — they only lengthen deadlines — which is why the
fallback is acceptable (DESIGN.md §2).

The exact answer comes a row at a time: one sweep from a source ``u``
over ``(visited mask, end vertex)`` states, advanced level by level so a
state's level is its path length, yields ``D(u, v)`` for every ``v`` at
once.  A ``v`` no state ever ends at is unreachable from ``u``, so on
the exact branch reachability is read from the same row and no separate
search runs; only the ``|V| > exact_limit`` branch keeps a BFS.

Exact answers are also remembered per topology.  Every scenario of a
sweep rebuilds its digraph, and the harness, the timelock ladder and the
analyzer each ask for ``diam(D)``, ``D(u, v)`` and the leader FVS again,
so :func:`~repro.digraph.digraph.topology_memo` (defined beside
:class:`~repro.digraph.digraph.Digraph`, re-exported here) keeps one
compact :class:`~repro.digraph.digraph.TopologyInvariants` entry per
declaration-order ``(digraph.vertices, digraph.arcs)`` pair: the exact
diameter, the exact ``D(u, v)`` table, the exact and greedy FVS and the
leader sets checked to be one (:mod:`repro.digraph.feedback`), strong
connectivity, and the digraph's encoded size and JSON texts.  Vertex
order is part of the key because the exact FVS is the first minimum
subset in vertex order.  A digraph object probes the memo once and
keeps its entry.  The memo is one LRU of at most
:data:`~repro.digraph.digraph.TOPOLOGY_MEMO_LIMIT` entries.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator

from repro.digraph.digraph import (  # noqa: F401 - the memo is re-exported here
    _MEMO,
    TOPOLOGY_MEMO_LIMIT,
    Arc,
    Digraph,
    Vertex,
    topology_memo,
)
from repro.errors import DigraphError

EXACT_LONGEST_PATH_LIMIT = 14
"""Largest vertex count for which longest paths are computed exactly."""


# ---------------------------------------------------------------------------
# Reachability and strong connectivity
# ---------------------------------------------------------------------------


def reachable_from(digraph: Digraph, source: Vertex) -> set[Vertex]:
    """All vertices reachable from ``source`` (including itself)."""
    if not digraph.has_vertex(source):
        raise DigraphError(f"unknown vertex {source!r}")
    seen = {source}
    stack = [source]
    while stack:
        v = stack.pop()
        for w in digraph.out_neighbors(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_strongly_connected(digraph: Digraph) -> bool:
    """True iff every vertex reaches every other (§2.1).

    The empty digraph and single-vertex digraph are strongly connected by
    convention.  Answered once per topology (:func:`topology_memo`).
    """
    vertices = digraph.vertices
    if len(vertices) <= 1:
        return True
    entry = topology_memo(digraph)
    connected = entry.strongly_connected
    if connected is None:
        root = vertices[0]
        connected = entry.strongly_connected = (
            len(reachable_from(digraph, root)) == len(vertices)
            and len(reachable_from(digraph.transpose(), root)) == len(vertices)
        )
    return connected


def strongly_connected_components(digraph: Digraph) -> list[set[Vertex]]:
    """Tarjan's algorithm, iterative; components in reverse topological order."""
    index_of: dict[Vertex, int] = {}
    lowlink: dict[Vertex, int] = {}
    on_stack: set[Vertex] = set()
    stack: list[Vertex] = []
    components: list[set[Vertex]] = []
    counter = 0

    for start in digraph.vertices:
        if start in index_of:
            continue
        work: list[tuple[Vertex, Iterator[Vertex]]] = [
            (start, iter(digraph.out_neighbors(start)))
        ]
        index_of[start] = lowlink[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            v, neighbors = work[-1]
            advanced = False
            for w in neighbors:
                if w not in index_of:
                    index_of[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(digraph.out_neighbors(w))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index_of[v]:
                component: set[Vertex] = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.add(w)
                    if w == v:
                        break
                components.append(component)
    return components


def is_acyclic(digraph: Digraph) -> bool:
    """True iff ``digraph`` has no (directed) cycle."""
    in_degree = {v: digraph.in_degree(v) for v in digraph.vertices}
    frontier = [v for v, d in in_degree.items() if d == 0]
    removed = 0
    while frontier:
        v = frontier.pop()
        removed += 1
        for w in digraph.out_neighbors(v):
            in_degree[w] -= 1
            if in_degree[w] == 0:
                frontier.append(w)
    return removed == len(digraph.vertices)


def find_cycle(digraph: Digraph) -> list[Vertex] | None:
    """Return some directed cycle as ``[v0, ..., vk, v0]``, or ``None``."""
    color: dict[Vertex, int] = {v: 0 for v in digraph.vertices}  # 0 new 1 open 2 done
    parent: dict[Vertex, Vertex] = {}
    for start in digraph.vertices:
        if color[start] != 0:
            continue
        stack: list[tuple[Vertex, Iterator[Vertex]]] = [
            (start, iter(digraph.out_neighbors(start)))
        ]
        color[start] = 1
        while stack:
            v, neighbors = stack[-1]
            advanced = False
            for w in neighbors:
                if color[w] == 0:
                    color[w] = 1
                    parent[w] = v
                    stack.append((w, iter(digraph.out_neighbors(w))))
                    advanced = True
                    break
                if color[w] == 1:
                    cycle = [v]
                    cursor = v
                    while cursor != w:
                        cursor = parent[cursor]
                        cycle.append(cursor)
                    cycle.reverse()
                    cycle.append(cycle[0])
                    return cycle
            if not advanced:
                color[v] = 2
                stack.pop()
    return None


# ---------------------------------------------------------------------------
# Shortest paths (used for statistics and for broadcast-optimisation routing)
# ---------------------------------------------------------------------------


def shortest_path_length(digraph: Digraph, source: Vertex, target: Vertex) -> int | None:
    """BFS distance from ``source`` to ``target``; ``None`` if unreachable."""
    if not digraph.has_vertex(source) or not digraph.has_vertex(target):
        raise DigraphError("unknown vertex")
    if source == target:
        return 0
    distance = {source: 0}
    frontier = [source]
    while frontier:
        next_frontier = []
        for v in frontier:
            for w in digraph.out_neighbors(v):
                if w in distance:
                    continue
                distance[w] = distance[v] + 1
                if w == target:
                    return distance[w]
                next_frontier.append(w)
        frontier = next_frontier
    return None


# ---------------------------------------------------------------------------
# The per-topology memo's table markers
# ---------------------------------------------------------------------------

_UNKNOWN = -2
_UNREACHABLE = -1


# ---------------------------------------------------------------------------
# Longest simple paths (the paper's D(u, v) and diam(D))
# ---------------------------------------------------------------------------


def longest_path_length(
    digraph: Digraph,
    source: Vertex,
    target: Vertex,
    exact_limit: int = EXACT_LONGEST_PATH_LIMIT,
) -> int:
    """The paper's ``D(u, v)``: longest simple-path length from ``u`` to ``v``.

    Exact (one sweep per source, memoised per topology) when
    ``|V| <= exact_limit``; otherwise the safe upper bound ``|V| - 1``.
    Raises :class:`DigraphError` if ``target`` is unreachable from
    ``source``.
    """
    if not digraph.has_vertex(source) or not digraph.has_vertex(target):
        raise DigraphError("unknown vertex")
    if source == target:
        return 0
    vertices = digraph.vertices
    n = len(vertices)
    if n > exact_limit:
        reached = shortest_path_length(digraph, source, target) is not None
        length = n - 1 if reached else _UNREACHABLE
    else:
        row = vertices.index(source)
        length = _longest_table(digraph, (row,))[row * n + vertices.index(target)]
    if length == _UNREACHABLE:
        raise DigraphError(f"{target!r} is not reachable from {source!r}")
    return length


def out_masks(digraph: Digraph) -> list[int]:
    """Per vertex position, its out-neighbours as a bitmask over positions."""
    index = {v: i for i, v in enumerate(digraph.vertices)}
    masks = [0] * len(index)
    for u, v in digraph.arcs:
        masks[index[u]] |= 1 << index[v]
    return masks


def _longest_table(digraph: Digraph, sources: Iterable[int]) -> array[int]:
    """The memoised ``D(u, v)`` table with the rows of ``sources`` filled."""
    n = len(digraph.vertices)
    entry = topology_memo(digraph)
    table = entry.longest
    if table is None:
        table = entry.longest = array("h", [_UNKNOWN]) * (n * n)
    masks: list[int] | None = None
    for source in sources:
        if table[source * n] == _UNKNOWN:
            if masks is None:
                masks = out_masks(digraph)
            table[source * n : (source + 1) * n] = _longest_row(masks, source)
    return table


def _longest_row(masks: list[int], source: int) -> array[int]:
    """``D(source, v)`` for every position ``v``, by one subset sweep.

    Level ``k`` holds every simple path of length ``k`` from ``source``
    as a ``visited mask -> end vertices`` map (a mask's end set is a
    bitmask too), so each ``(mask, end)`` state is kept once and the
    last level that reaches ``v`` is ``D(source, v)``.  The source's own
    slot is 0; vertices never reached are :data:`_UNREACHABLE`.
    """
    row = array("h", [_UNREACHABLE]) * len(masks)
    row[source] = 0
    start = 1 << source
    level: dict[int, int] = {start: start}
    length = 0
    while level:
        length += 1
        grown: dict[int, int] = {}
        reached = 0
        for visited, ends in level.items():
            while ends:
                end = ends & -ends
                ends ^= end
                step = masks[end.bit_length() - 1] & ~visited
                reached |= step
                while step:
                    bit = step & -step
                    step ^= bit
                    key = visited | bit
                    grown[key] = grown.get(key, 0) | bit
        while reached:
            bit = reached & -reached
            reached ^= bit
            row[bit.bit_length() - 1] = length
        level = grown
    return row


def diameter(digraph: Digraph, exact_limit: int = EXACT_LONGEST_PATH_LIMIT) -> int:
    """The paper's ``diam(D)``: the longest path between any ordered pair.

    Exact up to ``exact_limit`` vertices (the maximum of the memoised
    ``D(u, v)`` table, every row filled), else the safe upper bound
    ``|V| - 1`` (see module docstring).  Requires at least one arc.
    """
    if digraph.arc_count() == 0:
        raise DigraphError("diameter is undefined for an arcless digraph")
    n = len(digraph.vertices)
    if n > exact_limit:
        return diameter_upper_bound(digraph)
    entry = topology_memo(digraph)
    if entry.diameter is None:
        entry.diameter = max(_longest_table(digraph, range(n)))
    return entry.diameter


def diameter_upper_bound(digraph: Digraph) -> int:
    """``|V| - 1``: a bound no simple path can exceed."""
    return max(1, len(digraph.vertices) - 1)


def all_simple_paths(
    digraph: Digraph,
    source: Vertex,
    target: Vertex,
    max_paths: int | None = None,
) -> list[tuple[Vertex, ...]]:
    """Every simple path from ``source`` to ``target``.

    Hashkey enumeration (Fig. 7) uses this: the valid hashkeys for lock
    ``i`` on arc ``(u, v)`` correspond to the simple paths from ``v`` to
    leader ``i``.  ``max_paths`` truncates the enumeration for large graphs.
    """
    if not digraph.has_vertex(source) or not digraph.has_vertex(target):
        raise DigraphError("unknown vertex")
    results: list[tuple[Vertex, ...]] = []
    path: list[Vertex] = [source]
    on_path = {source}

    def extend(v: Vertex) -> bool:
        """DFS over simple extensions; returns False once max_paths is hit."""
        for w in digraph.out_neighbors(v):
            if w == target:
                # Reaching the target closes a path; when source == target
                # this is the paper's cycle case (last vertex may repeat the
                # first, all other vertices distinct).
                results.append(tuple(path) + (w,))
                if max_paths is not None and len(results) >= max_paths:
                    return False
                continue
            if w in on_path:
                continue
            path.append(w)
            on_path.add(w)
            keep_going = extend(w)
            path.pop()
            on_path.discard(w)
            if not keep_going:
                return False
        return True

    if source == target:
        # The degenerate single-vertex path always exists.
        results.append((source,))
    if max_paths is None or len(results) < max_paths:
        extend(source)
    return results


def longest_path(
    digraph: Digraph, source: Vertex, target: Vertex
) -> tuple[Vertex, ...]:
    """A concrete longest simple path from ``source`` to ``target`` (exact)."""
    best: tuple[Vertex, ...] | None = None
    for candidate in all_simple_paths(digraph, source, target):
        if best is None or len(candidate) > len(best):
            best = candidate
    if best is None:
        raise DigraphError(f"{target!r} is not reachable from {source!r}")
    return best
