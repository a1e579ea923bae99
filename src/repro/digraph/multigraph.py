"""Directed multigraphs: parallel arcs between the same pair of parties.

The paper remarks (§5) that the protocol "is easily extended to a model
where there may be more than one arc from one vertex to another", i.e.
Alice transfers assets on several distinct blockchains to Bob.  A
:class:`MultiDigraph` models this: each arc instance carries a *key* so
that ``(u, v, 0)`` and ``(u, v, 1)`` are distinct transfers.

The graph-theoretic machinery (strong connectivity, diameter, feedback
vertex sets, hashkey paths) only depends on which ordered pairs are
connected, never on multiplicity, so :meth:`MultiDigraph.underlying_simple`
projects to a :class:`~repro.digraph.digraph.Digraph` and the protocol
instantiates one contract per *keyed* arc.
"""

from __future__ import annotations

from typing import Iterable

from repro.digraph.digraph import Digraph, Vertex
from repro.errors import DigraphError

MultiArc = tuple[Vertex, Vertex, int]


class MultiDigraph:
    """An immutable directed multigraph with integer-keyed parallel arcs."""

    __slots__ = ("_vertices", "_arcs", "_arc_set", "_simple")

    def __init__(
        self,
        vertices: Iterable[Vertex],
        arcs: Iterable[tuple[Vertex, Vertex] | MultiArc],
    ) -> None:
        vertex_list = list(vertices)
        if len(set(vertex_list)) != len(vertex_list):
            raise DigraphError("duplicate vertex")
        vertex_set = set(vertex_list)

        keyed: list[MultiArc] = []
        used: set[MultiArc] = set()
        next_key: dict[tuple[Vertex, Vertex], int] = {}
        for arc in arcs:
            if len(arc) == 2:
                u, v = arc  # type: ignore[misc]
                key = next_key.get((u, v), 0)
            elif len(arc) == 3:
                u, v, key = arc  # type: ignore[misc]
            else:
                raise DigraphError(f"arc must be (u, v) or (u, v, key), got {arc!r}")
            if u not in vertex_set or v not in vertex_set:
                raise DigraphError(f"arc ({u!r}, {v!r}) uses unknown vertices")
            if u == v:
                raise DigraphError("self-loops are not allowed")
            if (u, v, key) in used:
                raise DigraphError(f"duplicate keyed arc ({u!r}, {v!r}, {key})")
            used.add((u, v, key))
            keyed.append((u, v, key))
            next_key[(u, v)] = max(next_key.get((u, v), 0), key + 1)
        # The projection's vertices are not checked above.
        simple = Digraph(vertex_list, _pairs(keyed))
        self._assemble(simple, keyed, frozenset(used))

    @classmethod
    def from_checked(cls, vertices: list[Vertex], arcs: list[MultiArc]) -> "MultiDigraph":
        """The multigraph of names and keyed arcs that already pass the
        constructor's checks — distinct string vertices, distinct
        ``(head, tail, key)`` tuples of two different declared vertices —
        built without walking them again (the scenario decoder has)."""
        multigraph = cls.__new__(cls)
        simple = Digraph.from_checked(vertices, _pairs(arcs))
        multigraph._assemble(simple, arcs, frozenset(arcs))
        return multigraph

    def _assemble(
        self, simple: Digraph, arcs: list[MultiArc], arc_set: frozenset[MultiArc]
    ) -> None:
        self._vertices: tuple[Vertex, ...] = simple.vertices
        self._arcs: tuple[MultiArc, ...] = tuple(arcs)
        self._arc_set = arc_set
        self._simple = simple

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return self._vertices

    @property
    def arcs(self) -> tuple[MultiArc, ...]:
        """All keyed arcs ``(head, tail, key)`` in insertion order."""
        return self._arcs

    def arc_count(self) -> int:
        return len(self._arcs)

    def multiplicity(self, u: Vertex, v: Vertex) -> int:
        """How many parallel arcs run from ``u`` to ``v``."""
        return sum(1 for (a, b, _k) in self._arcs if (a, b) == (u, v))

    def has_arc(self, u: Vertex, v: Vertex, key: int | None = None) -> bool:
        if key is None:
            return self._simple.has_arc(u, v)
        return (u, v, key) in self._arc_set

    def out_arcs(self, v: Vertex) -> tuple[MultiArc, ...]:
        return tuple(arc for arc in self._arcs if arc[0] == v)

    def in_arcs(self, v: Vertex) -> tuple[MultiArc, ...]:
        return tuple(arc for arc in self._arcs if arc[1] == v)

    def underlying_simple(self) -> Digraph:
        """The simple digraph with one arc per connected ordered pair.

        Diameter, strong connectivity, feedback vertex sets, and hashkey
        paths for the multigraph protocol are all computed on this
        projection (multiplicity does not affect any of them).
        """
        return self._simple

    def transpose(self) -> "MultiDigraph":
        return MultiDigraph(self._vertices, [(v, u, k) for (u, v, k) in self._arcs])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiDigraph):
            return NotImplemented
        return (
            set(self._vertices) == set(other._vertices)
            and self._arc_set == other._arc_set
        )

    def __hash__(self) -> int:
        return hash((frozenset(self._vertices), self._arc_set))

    def __repr__(self) -> str:
        return (
            f"MultiDigraph(|V|={len(self._vertices)}, |A|={len(self._arcs)})"
        )


def _pairs(arcs: list[MultiArc]) -> list[tuple[Vertex, Vertex]]:
    """The distinct ``(head, tail)`` pairs of ``arcs``, in first-seen order."""
    return list(dict.fromkeys((u, v) for (u, v, _key) in arcs))
