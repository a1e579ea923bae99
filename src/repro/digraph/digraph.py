"""The digraph model of the paper (§2.1).

A digraph ``D = (V, A)`` has a finite vertex set and a finite set of arcs,
which are ordered pairs of *distinct* vertices.  An arc ``(u, v)`` has head
``u`` and tail ``v``; it *leaves* ``u`` and *enters* ``v`` (note the paper's
convention: the asset flows from the head to the tail).

:class:`Digraph` is immutable.  Vertex and arc iteration order is the
insertion order, which keeps every simulation deterministic.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from repro.errors import DigraphError

Vertex = str
Arc = tuple[Vertex, Vertex]


class Digraph:
    """An immutable simple digraph with deterministic iteration order."""

    __slots__ = (
        "_vertices", "_arcs", "_out", "_in", "_arc_set", "_hash", "_topology_key",
        "_encoded_size",
    )

    def __init__(self, vertices: Iterable[Vertex], arcs: Iterable[Arc]) -> None:
        vertex_list: list[Vertex] = []
        seen: set[Vertex] = set()
        for v in vertices:
            if not isinstance(v, str):
                raise DigraphError(f"vertices must be strings, got {v!r}")
            if v in seen:
                raise DigraphError(f"duplicate vertex {v!r}")
            seen.add(v)
            vertex_list.append(v)

        arc_list: list[Arc] = []
        arc_set: set[Arc] = set()
        for arc in arcs:
            try:
                u, v = arc
            except (TypeError, ValueError):
                raise DigraphError(f"arcs must be (head, tail) pairs, got {arc!r}")
            if u not in seen or v not in seen:
                raise DigraphError(f"arc ({u!r}, {v!r}) uses unknown vertices")
            if u == v:
                raise DigraphError(f"self-loop ({u!r}, {v!r}) is not allowed")
            if (u, v) in arc_set:
                raise DigraphError(
                    f"duplicate arc ({u!r}, {v!r}); use MultiDigraph for "
                    "parallel arcs"
                )
            arc_set.add((u, v))
            arc_list.append((u, v))
        self._assemble(vertex_list, arc_list, frozenset(arc_set))

    @classmethod
    def from_checked(cls, vertices: list[Vertex], arcs: list[Arc]) -> "Digraph":
        """The digraph of names and arcs that already pass the
        constructor's checks — distinct string vertices, distinct
        ``(head, tail)`` tuples of two different declared vertices —
        built without walking them again (the scenario decoder has)."""
        digraph = cls.__new__(cls)
        digraph._assemble(vertices, arcs, frozenset(arcs))
        return digraph

    def _assemble(
        self, vertices: list[Vertex], arcs: list[Arc], arc_set: frozenset[Arc]
    ) -> None:
        out: dict[Vertex, list[Vertex]] = {v: [] for v in vertices}
        in_: dict[Vertex, list[Vertex]] = {v: [] for v in vertices}
        for u, v in arcs:
            out[u].append(v)
            in_[v].append(u)
        self._vertices: tuple[Vertex, ...] = tuple(vertices)
        self._arcs: tuple[Arc, ...] = tuple(arcs)
        self._arc_set = arc_set
        self._out = {v: tuple(ws) for v, ws in out.items()}
        self._in = {v: tuple(ws) for v, ws in in_.items()}
        self._hash: int | None = None
        self._topology_key: str | None = None
        self._encoded_size: int | None = None

    # -- basic accessors ----------------------------------------------------

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        """``V(D)`` in insertion order."""
        return self._vertices

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """``A(D)`` in insertion order."""
        return self._arcs

    def vertex_count(self) -> int:
        return len(self._vertices)

    def arc_count(self) -> int:
        return len(self._arcs)

    def has_vertex(self, v: Vertex) -> bool:
        return v in self._out

    def has_arc(self, u: Vertex, v: Vertex) -> bool:
        return (u, v) in self._arc_set

    def out_neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        """Tails of arcs leaving ``v``."""
        self._require_vertex(v)
        return self._out[v]

    def in_neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        """Heads of arcs entering ``v``."""
        self._require_vertex(v)
        return self._in[v]

    def out_arcs(self, v: Vertex) -> tuple[Arc, ...]:
        """Arcs leaving ``v`` (``v`` transfers these assets away)."""
        return tuple((v, w) for w in self.out_neighbors(v))

    def in_arcs(self, v: Vertex) -> tuple[Arc, ...]:
        """Arcs entering ``v`` (``v`` acquires these assets)."""
        return tuple((u, v) for u in self.in_neighbors(v))

    def out_degree(self, v: Vertex) -> int:
        return len(self.out_neighbors(v))

    def in_degree(self, v: Vertex) -> int:
        return len(self.in_neighbors(v))

    def _require_vertex(self, v: Vertex) -> None:
        if v not in self._out:
            raise DigraphError(f"unknown vertex {v!r}")

    # -- derived digraphs ---------------------------------------------------

    def transpose(self) -> "Digraph":
        """``D^T``: the digraph with every arc reversed (§2.1)."""
        return Digraph(self._vertices, [(v, u) for (u, v) in self._arcs])

    def subdigraph(self, vertices: Iterable[Vertex]) -> "Digraph":
        """The subdigraph induced by ``vertices``."""
        keep = set(vertices)
        for v in keep:
            self._require_vertex(v)
        ordered = [v for v in self._vertices if v in keep]
        arcs = [(u, v) for (u, v) in self._arcs if u in keep and v in keep]
        return Digraph(ordered, arcs)

    def remove_vertices(self, vertices: Iterable[Vertex]) -> "Digraph":
        """The subdigraph induced by ``V(D)`` minus ``vertices``."""
        drop = set(vertices)
        return self.subdigraph(v for v in self._vertices if v not in drop)

    def with_arcs(self, extra: Iterable[Arc]) -> "Digraph":
        """A copy with additional arcs (duplicates rejected)."""
        return Digraph(self._vertices, list(self._arcs) + list(extra))

    # -- paths ---------------------------------------------------------------

    def is_path(self, path: tuple[Vertex, ...] | list[Vertex]) -> bool:
        """Check the paper's path definition (§2.1).

        A path ``(u0, ..., ul)`` requires every consecutive pair to be an
        arc and ``u0, ..., u(l-1)`` to be distinct; the final vertex may
        equal the first (making the path a cycle).  A single vertex is a
        degenerate path of length 0.
        """
        if len(path) == 0:
            return False
        if any(not self.has_vertex(v) for v in path):
            return False
        prefix = path[:-1] if len(path) > 1 else path
        if len(set(prefix)) != len(prefix):
            return False
        if len(path) > 1 and path[-1] != path[0] and path[-1] in prefix:
            return False
        return all(self.has_arc(path[i], path[i + 1]) for i in range(len(path) - 1))

    # -- serialisation (used for contract storage accounting) ---------------

    def to_dict(self) -> dict:
        """A canonical JSON-compatible representation."""
        return {"vertices": list(self._vertices), "arcs": [list(a) for a in self._arcs]}

    @classmethod
    def from_dict(cls, data: dict) -> "Digraph":
        return cls(data["vertices"], [tuple(a) for a in data["arcs"]])

    def encoded_size_bytes(self) -> int:
        """Bytes a blockchain stores for one copy of this digraph.

        Theorem 4.10's ``O(|A|^2)`` space bound counts one digraph copy per
        contract; this canonical encoding makes the bound measurable.
        Computed once: every contract published on this digraph asks.
        """
        if self._encoded_size is None:
            self._encoded_size = len(
                json.dumps(self.to_dict(), separators=(",", ":")).encode()
            )
        return self._encoded_size

    def topology_key(self) -> str:
        """The ordered vertex and arc lists as one short string, computed once.

        ``==`` and ``hash`` compare vertex and arc *sets*; two digraphs
        share this key only when they list the same vertices and arcs in
        the same order, which order-sensitive results (the first minimum
        FVS in vertex order) need.  The vertex tuple's ``repr`` is followed
        by the arcs as vertex-index pairs, so the key is injective and
        holds no reference to this digraph.
        """
        if self._topology_key is None:
            index = {v: i for i, v in enumerate(self._vertices)}
            self._topology_key = repr(self._vertices) + "".join(
                f"{index[u]}>{index[v]};" for u, v in self._arcs
            )
        return self._topology_key

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return (
            set(self._vertices) == set(other._vertices)
            and self._arc_set == other._arc_set
        )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self,
                "_hash",
                hash((frozenset(self._vertices), self._arc_set)),
            )
        return self._hash  # type: ignore[return-value]

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._vertices)

    def __len__(self) -> int:
        return len(self._vertices)

    def __repr__(self) -> str:
        return (
            f"Digraph(|V|={len(self._vertices)}, |A|={len(self._arcs)}, "
            f"vertices={list(self._vertices)!r})"
        )
