"""Feedback vertex sets: verification, exact minimum, greedy heuristic.

A feedback vertex set (FVS) is a vertex subset whose removal leaves the
digraph acyclic (§2.1).  The paper requires the leader set ``L`` to be an
FVS (Theorem 4.12) and remarks that finding a *minimum* FVS is NP-complete
[Karp 1972] while efficient approximations exist.  We provide:

* :func:`is_feedback_vertex_set` — the protocol-critical check;
* :func:`minimum_feedback_vertex_set` — exact, exponential, for the small
  digraphs swaps use in practice;
* :func:`greedy_feedback_vertex_set` — a fast heuristic (pick the vertex
  with maximum in-degree x out-degree product until acyclic, then prune to a
  minimal set), benchmarked against the exact algorithm in E16;
* :func:`feedback_vertex_set` — picks exact vs greedy by graph size and
  remembers the answer per topology (:func:`repro.digraph.digraph.topology_memo`).
"""

from __future__ import annotations

from itertools import combinations

from repro.digraph.digraph import FEEDBACK_SETS_LIMIT, Digraph, Vertex, topology_memo
from repro.digraph.paths import is_acyclic, out_masks
from repro.errors import DigraphError, NotFeedbackVertexSetError

EXACT_FVS_LIMIT = 14
"""Largest vertex count for which the exact minimum FVS is attempted."""


def is_feedback_vertex_set(digraph: Digraph, candidates: set[Vertex] | frozenset[Vertex]) -> bool:
    """True iff removing ``candidates`` leaves ``digraph`` acyclic."""
    for v in candidates:
        if not digraph.has_vertex(v):
            raise DigraphError(f"unknown vertex {v!r}")
    return is_acyclic(digraph.remove_vertices(candidates))


def require_feedback_vertex_set(digraph: Digraph, candidates: set[Vertex]) -> None:
    """Raise :class:`NotFeedbackVertexSetError` unless ``candidates`` is an FVS.

    Answered once per topology and candidate set: every
    :class:`~repro.core.spec.SwapSpec` checks its leaders, so the answer
    is kept in the topology's memo entry (``feedback_sets``: at most
    :data:`~repro.digraph.digraph.FEEDBACK_SETS_LIMIT` sets, and a full
    one starts over)."""
    vertices = digraph.vertices
    if not all(digraph.has_vertex(v) for v in candidates):
        is_feedback_vertex_set(digraph, candidates)  # raises for the unknown vertex
    answers = topology_memo(digraph).feedback_sets
    chosen = _mask(vertices, candidates)
    breaks = answers.get(chosen)
    if breaks is None:
        everyone = (1 << len(vertices)) - 1
        breaks = _acyclic_within(out_masks(digraph), everyone ^ chosen)
        if len(answers) >= FEEDBACK_SETS_LIMIT:
            answers.clear()
        answers[chosen] = breaks
    if not breaks:
        raise NotFeedbackVertexSetError(
            f"{sorted(candidates)!r} is not a feedback vertex set: the "
            "follower subdigraph still contains a cycle (Theorem 4.12 "
            "requires leaders to form an FVS)"
        )


def minimum_feedback_vertex_set(
    digraph: Digraph, exact_limit: int = EXACT_FVS_LIMIT
) -> set[Vertex]:
    """An exact minimum FVS by exhaustive search over subset sizes.

    Candidates are tried smallest first and, within a size, in
    ``combinations`` order over vertex positions, so the answer is the
    first minimum subset in vertex order.  Each candidate is tested on
    position bitmasks (:func:`~repro.digraph.paths.out_masks`): the
    vertices left after removing it are acyclic iff repeatedly peeling
    off every vertex without an out-neighbour among them empties them.
    Exponential in ``|V|``; raises :class:`DigraphError` when the
    digraph exceeds ``exact_limit`` vertices (use the greedy heuristic
    there).
    """
    vertices = digraph.vertices
    if len(vertices) > exact_limit:
        raise DigraphError(
            f"exact minimum FVS limited to {exact_limit} vertices "
            f"(got {len(vertices)}); use greedy_feedback_vertex_set"
        )
    masks = out_masks(digraph)
    everyone = (1 << len(vertices)) - 1
    for size in range(len(vertices) + 1):
        for subset in combinations(range(len(vertices)), size):
            if _acyclic_within(masks, everyone ^ sum(1 << i for i in subset)):
                return {vertices[i] for i in subset}
    raise AssertionError("unreachable: V(D) itself is always an FVS")


def _acyclic_within(masks: list[int], keep: int) -> bool:
    """True iff the subdigraph induced by the positions in ``keep`` has
    no cycle: peel off its sinks until nothing or only cycles remain."""
    while keep:
        sinks = 0
        rest = keep
        while rest:
            bit = rest & -rest
            rest ^= bit
            if not masks[bit.bit_length() - 1] & keep:
                sinks |= bit
        if not sinks:
            return False
        keep ^= sinks
    return True


def greedy_feedback_vertex_set(digraph: Digraph) -> set[Vertex]:
    """A fast heuristic FVS, pruned to be (inclusion-)minimal.

    Repeatedly removes the vertex with the largest in-degree x out-degree
    product among vertices still on a cycle, then tries to add back any
    vertex whose return keeps the graph acyclic.  The result is always a
    valid FVS but not necessarily minimum; bench E16 quantifies the gap.
    """
    removed: list[Vertex] = []
    current = digraph
    while not is_acyclic(current):
        best_vertex = None
        best_score = -1
        for v in current.vertices:
            score = current.in_degree(v) * current.out_degree(v)
            if score > best_score:
                best_score = score
                best_vertex = v
        assert best_vertex is not None
        removed.append(best_vertex)
        current = current.remove_vertices([best_vertex])

    # Minimalise: a vertex can rejoin if the rest still forms an FVS.
    essential = set(removed)
    for v in removed:
        trial = essential - {v}
        if is_feedback_vertex_set(digraph, trial):
            essential = trial
    return essential


def feedback_vertex_set(digraph: Digraph, exact_limit: int = EXACT_FVS_LIMIT) -> set[Vertex]:
    """A valid FVS: exact minimum for small digraphs, greedy beyond.

    Memoised per topology and branch; every call returns a fresh ``set``.
    """
    entry = topology_memo(digraph)
    vertices = digraph.vertices
    if len(vertices) <= exact_limit:
        if entry.fvs_exact is None:
            entry.fvs_exact = _mask(vertices, minimum_feedback_vertex_set(digraph, exact_limit))
        mask = entry.fvs_exact
    else:
        if entry.fvs_greedy is None:
            entry.fvs_greedy = _mask(vertices, greedy_feedback_vertex_set(digraph))
        mask = entry.fvs_greedy
    return {v for i, v in enumerate(vertices) if mask >> i & 1}


def _mask(vertices: tuple[Vertex, ...], chosen: set[Vertex]) -> int:
    return sum(1 << i for i, v in enumerate(vertices) if v in chosen)
