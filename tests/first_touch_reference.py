"""Test-only reference for a new scenario's first touch.

:func:`reference_canonical_text` is a scenario's canonical text by the
JSON encoder over the whole :meth:`~repro.api.scenario.Scenario.canonical_dict`.
:class:`PerObjectTopologyPath` is how a fresh
:class:`~repro.digraph.digraph.Digraph` found its topology's facts
before the memo was keyed by its declaration-order tuples: an
order-sensitive string key built once per object, a memo probe by that
string, the canonical text from a 32-entry ``lru_cache`` keyed by
digraph equality (which hashes and compares vertex and arc sets), the
declared text from a 32-entry table keyed by the string, and the
encoded size by one ``json.dumps`` per object.
``tests/test_canonical_text.py`` holds the shipped texts to these, and
bench E40 times the shipped path against them.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from functools import lru_cache
from typing import Any

from repro.api.scenario import Scenario, _canonical_topology, canonical_json
from repro.digraph.digraph import Digraph

LIMIT = 32


def reference_canonical_text(scenario: Scenario) -> str:
    """``canonical_json(canonical_dict())``."""
    return canonical_json(scenario.canonical_dict())


def string_key(digraph: Digraph) -> str:
    """The ordered vertex and arc lists as one string: the vertex
    tuple's ``repr``, then the arcs as vertex-index pairs."""
    index = {v: i for i, v in enumerate(digraph.vertices)}
    return repr(digraph.vertices) + "".join(f"{index[u]}>{index[v]};" for u, v in digraph.arcs)


class PerObjectTopologyPath:
    """The lookups of a fresh digraph object, each table its own."""

    def __init__(self) -> None:
        self.memo: OrderedDict[str, Any] = OrderedDict()
        self.lock = threading.Lock()
        self.declared: OrderedDict[str, str] = OrderedDict()
        self.canonical = lru_cache(maxsize=LIMIT)(
            lambda topology: canonical_json(_canonical_topology(topology))
        )

    def touch(self, digraph: Digraph) -> tuple[Any, str, str, int]:
        """The memo entry, canonical text, declared text and encoded
        size of ``digraph``, as a fresh object found them."""
        key = string_key(digraph)
        with self.lock:
            entry = self.memo.get(key)
            if entry is None:
                entry = self.memo[key] = object()
                if len(self.memo) > 256:
                    self.memo.popitem(last=False)
            else:
                self.memo.move_to_end(key)
        declared = self.declared.get(key)
        if declared is None:
            declared = json.dumps({"kind": "digraph", **digraph.to_dict()}, sort_keys=True)
            self.declared[key] = declared
            if len(self.declared) > LIMIT:
                self.declared.popitem(last=False)
        else:
            self.declared.move_to_end(key)
        size = len(json.dumps(digraph.to_dict(), separators=(",", ":")).encode())
        return entry, self.canonical(digraph), declared, size
