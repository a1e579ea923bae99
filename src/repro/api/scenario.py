"""`Scenario`: one frozen, serializable description of a protocol run.

A scenario pins down *everything* a protocol engine needs to execute one
swap deterministically: the topology (simple digraph or §5 multigraph),
the Δ-model parameters, the fault plan, deviating-strategy assignments
(by registered name, so scenarios stay serializable), the seed, and a
bag of engine-specific ``params``.  The same scenario handed to two
different engines is the paper's comparative method in one object: the
topology and adversary stay fixed while the protocol varies.

Scenarios round-trip through :meth:`Scenario.to_dict` /
:meth:`Scenario.from_dict` (plain JSON-compatible values only), which is
also what lets :mod:`repro.api.sweep` ship them across process
boundaries without pickling live simulation objects.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import Any

from repro.core.strategies import (
    GreedyClaimOnlyParty,
    LastMomentUnlockParty,
    PrematureRevealParty,
    RefuseToPublishParty,
    SelectiveUnlockParty,
    WithholdSecretParty,
    WrongContractParty,
)
from repro.crypto.hashing import sha256
from repro.crypto.signatures import DEFAULT_SCHEME_NAME
from repro.digraph.digraph import Digraph, Vertex
from repro.digraph.multigraph import MultiDigraph
from repro.digraph.paths import EXACT_LONGEST_PATH_LIMIT
from repro.errors import ScenarioError, UnknownStrategyError
from repro.sim.clock import DEFAULT_DELTA
from repro.sim.faults import FaultPlan
from repro.sim.process import DEFAULT_ACTION_FRACTION, DEFAULT_REACTION_FRACTION
from repro.sim.timing import (
    TimingModel,
    is_default_timing,
    resolve_timing,
    timing_to_dict,
)
from repro.errors import TimingError

# ---------------------------------------------------------------------------
# Deviating-strategy registry (names keep scenarios serializable)
# ---------------------------------------------------------------------------

STRATEGIES: dict[str, type] = {
    "refuse-to-publish": RefuseToPublishParty,
    "withhold-secret": WithholdSecretParty,
    "premature-reveal": PrematureRevealParty,
    "selective-unlock": SelectiveUnlockParty,
    "last-moment-unlock": LastMomentUnlockParty,
    "wrong-contract": WrongContractParty,
    "greedy-claim-only": GreedyClaimOnlyParty,
}


def resolve_strategy(name: str) -> type:
    """Look up a deviating-party class by its registered name."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise UnknownStrategyError(name, tuple(STRATEGIES)) from None


def _jsonify(value: Any) -> Any:
    """Normalise params to JSON-compatible values (tuples/sets -> lists)."""
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted((_jsonify(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, bytes):
        return value.hex()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ScenarioError(
        f"scenario params must be JSON-compatible; got {type(value).__name__}"
    )


def canonical_json(value: Any) -> str:
    """The canonical JSON encoding used for content addressing.

    Sorted keys, no whitespace, ASCII-only — two structurally equal
    JSON-compatible values always encode to the same byte string, so the
    encoding is a fit hash preimage.
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def scalar_json(value: Any) -> str | None:
    """The JSON text of an exact ``bool``, ``int``, finite ``float`` or
    ``str`` — what the ``json`` encoder writes for it in any of this
    project's encodings (all ASCII-only) — or ``None`` for any other
    value, which needs the encoder itself.  Cheaper than an encoder call
    for the seeds, flags and names spliced into cached texts."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    if kind is float and isfinite(value):
        return float.__repr__(value)
    return None


def _topology_to_dict(topology: Digraph | MultiDigraph) -> dict:
    if isinstance(topology, MultiDigraph):
        return {
            "kind": "multigraph",
            "vertices": list(topology.vertices),
            "arcs": [list(arc) for arc in topology.arcs],
        }
    return {"kind": "digraph", **topology.to_dict()}


def _canonical_topology(topology: Digraph | MultiDigraph) -> dict:
    """:func:`_topology_to_dict` with vertices and arcs sorted."""
    data = _topology_to_dict(topology)
    data["vertices"] = sorted(data["vertices"])
    data["arcs"] = sorted(data["arcs"])
    return data


@lru_cache(maxsize=32)
def _topology_text(topology: Digraph | MultiDigraph) -> str:
    """The canonical JSON of ``topology``, once per topology (equal
    topologies — same vertex and arc sets — share it).  A seed grid
    revisits few topologies; a small bound keeps few of them alive."""
    return canonical_json(_canonical_topology(topology))


def _faults_to_dict(faults: FaultPlan) -> dict:
    return {
        party: {
            "at_time": crash.at_time,
            "at_point": crash.at_point.value if crash.at_point else None,
        }
        for party, crash in faults.crashes.items()
    }


@dataclass(frozen=True)
class Scenario:
    """A frozen description of one protocol run.

    Engine-agnostic fields are the run parameters every protocol reads
    (the simulations take the scenario itself, and the direct runners
    such as :func:`repro.core.protocol.run_swap` build one from their
    keyword arguments); engine-specific knobs (attacker, defectors,
    Byzantine commit subsets, ...) ride in ``params`` — see each adapter
    in :mod:`repro.api.engines` for its recognised keys.
    """

    topology: Digraph | MultiDigraph
    name: str = ""
    leaders: tuple[Vertex, ...] | None = None
    delta: int = DEFAULT_DELTA
    timeout_slack: int = 0
    start_time: int | None = None
    use_broadcast: bool = False
    reaction_fraction: float = DEFAULT_REACTION_FRACTION
    action_fraction: float = DEFAULT_ACTION_FRACTION
    seed: int = 7
    exact_limit: int = EXACT_LONGEST_PATH_LIMIT
    diam_override: int | None = None
    scheme_name: str = DEFAULT_SCHEME_NAME
    timing: Any = None
    """Timing-model spec (:mod:`repro.sim.timing`): ``None`` or
    ``"uniform"`` keeps the historical per-party profile (and the
    historical ``run_key``); ``"jittered"``/``"stragglers"`` — or a
    ``{"kind": ..., **params}`` dict — swap in per-party seeded
    profiles and participate in run-key hashing."""
    faults: FaultPlan = field(default_factory=FaultPlan)
    strategies: dict[Vertex, str] = field(default_factory=dict)
    params: dict[str, Any] = field(default_factory=dict)
    chain_delays: dict[str, int] = field(default_factory=dict)
    """Heterogeneous per-chain confirmation latency (the *chain-side* Δ):
    extra ticks every watcher waits before observing a record on that
    chain, on top of its own profile's ``reaction_delay``.  Keys are arc
    labels (``"head->tail"``) or ``"broadcast"``; values are
    non-negative tick counts.  Empty (the default) keeps the historical
    behaviour — and the historical ``run_key``, so existing stores stay
    warm; non-default delays participate in run-key hashing."""

    def __post_init__(self) -> None:
        if not isinstance(self.topology, (Digraph, MultiDigraph)):
            raise ScenarioError(
                "topology must be a Digraph or MultiDigraph, got "
                f"{type(self.topology).__name__}"
            )
        object.__setattr__(
            self,
            "leaders",
            tuple(self.leaders) if self.leaders is not None else None,
        )
        object.__setattr__(self, "strategies", dict(self.strategies))
        object.__setattr__(self, "params", _jsonify(self.params))
        try:
            object.__setattr__(self, "timing", timing_to_dict(self.timing))
        except TimingError as error:
            raise ScenarioError(str(error)) from None
        if (
            not isinstance(self.chain_delays, Mapping)
            or self.chain_delays
            or self.strategies
        ):
            from repro.analysis.structure import construction_refusals

            for _, refusal in construction_refusals(self):
                raise refusal
        object.__setattr__(self, "chain_delays", dict(self.chain_delays))

    # -- derived views -------------------------------------------------------

    def digraph(self) -> Digraph:
        """The underlying simple digraph (multigraphs project down)."""
        if isinstance(self.topology, MultiDigraph):
            return self.topology.underlying_simple()
        return self.topology

    def timing_model(self) -> TimingModel:
        """The resolved :class:`~repro.sim.timing.TimingModel` (uniform
        when the field was omitted)."""
        return resolve_timing(self.timing)

    def resolved_strategies(self) -> dict[Vertex, type]:
        """Strategy names resolved to party classes (hashkey engines)."""
        return {v: resolve_strategy(name) for v, name in self.strategies.items()}

    def analyze(self, engine: str = "herlihy") -> Any:
        """Statically verify this scenario without executing it.

        Returns a :class:`repro.analysis.protocol.ScenarioAnalysis`:
        structural diagnostics (strong connectivity, leader validity,
        timing sanity — each with a machine-readable code and JSON
        path), and, for conforming scenarios, the closed-form Fig. 3
        profile (deadline ladder, milestone counts, completion time,
        escrowed-byte cost) plus the all-Deal verdict.  Never raises on
        a bad scenario — problems come back as diagnostics.

        Imported lazily: the verifier depends on this module, not the
        other way round.
        """
        from repro.analysis.protocol import analyze_scenario

        return analyze_scenario(self, engine=engine)

    def with_(self, **changes: Any) -> "Scenario":
        """A modified copy (``dataclasses.replace`` with a short name)."""
        return replace(self, **changes)

    def label(self) -> str:
        if self.name:
            return self.name
        d = self.digraph()
        return f"|V|={len(d.vertices)}|A|={d.arc_count()}seed={self.seed}"

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-compatible representation; inverse of :meth:`from_dict`.

        ``timing`` is omitted when unset (``None``), and
        ``chain_delays`` when empty: an unset axis serializes exactly as
        it did before the field existed, so stored entries — not just
        run keys — stay byte-identical.
        """
        data = {"topology": _topology_to_dict(self.topology), **self._fields_dict()}
        if data["timing"] is None:
            del data["timing"]
        if not data["chain_delays"]:
            del data["chain_delays"]
        return data

    def _fields_dict(self) -> dict:
        """Every field but the topology, JSON-compatible."""
        return {
            "name": self.name,
            "leaders": list(self.leaders) if self.leaders is not None else None,
            "delta": self.delta,
            "timeout_slack": self.timeout_slack,
            "start_time": self.start_time,
            "use_broadcast": self.use_broadcast,
            "reaction_fraction": self.reaction_fraction,
            "action_fraction": self.action_fraction,
            "seed": self.seed,
            "exact_limit": self.exact_limit,
            "diam_override": self.diam_override,
            "scheme_name": self.scheme_name,
            "timing": self.timing,
            "faults": _faults_to_dict(self.faults),
            "strategies": dict(self.strategies),
            "params": self.params,
            "chain_delays": dict(self.chain_delays),
        }

    def _canonical_fields(self) -> dict:
        """:meth:`canonical_dict` without its topology."""
        data = self._fields_dict()
        del data["name"]
        if is_default_timing(data["timing"]):
            del data["timing"]
        if not data["chain_delays"]:
            del data["chain_delays"]
        return data

    def canonical_dict(self) -> dict:
        """The content of this scenario, normalised for hashing.

        Differs from :meth:`to_dict` in three ways: the display ``name``
        is dropped (renaming a scenario does not change the run it
        describes), topology vertices/arcs are sorted (matching
        :class:`Digraph` equality, which ignores declaration order), and
        default (uniform) ``timing`` is dropped — a scenario that never
        named a timing model hashes exactly as it did before the field
        existed, so pre-timing run stores stay warm.  Not an input
        format — use :meth:`to_dict` for round-trips.
        """
        return {**self._canonical_fields(), "topology": _canonical_topology(self.topology)}

    def canonical_text(self) -> str:
        """The canonical JSON encoding of :meth:`canonical_dict`, cached.

        Scenarios are frozen, so the canonical content never changes
        after construction — but re-canonicalizing it is measurable at
        sweep scale (every :func:`repro.api.sweep.run_key`, store
        lookup, sweep dedup pass, and serve warm-cache probe needs it).
        The encoding is computed on first use, together with
        :meth:`shape_text` and from the same fields, and the *identical
        string object* is returned ever after.  The topology's canonical
        text is encoded once per topology and spliced in at its sorted
        place — ``"topology"`` is the second-last key, before
        ``use_broadcast`` — so the text equals
        ``canonical_json(canonical_dict())`` byte for byte.
        """
        cached: str | None = getattr(self, "_canonical_text", None)
        if cached is None:
            cached = self._encode_canonical()[0]
        return cached

    def shape_text(self) -> str:
        """:meth:`canonical_text`'s content with the seed masked out, cached
        the same way.

        The key of the fast path's shape memos
        (:mod:`repro.analysis.engine`): the seed only varies the leader
        secrets, so every seed of one shape shares its analysis and
        report template.  An in-memory key, never stored: the fields
        without the seed, then the topology's canonical text.
        """
        cached: str | None = getattr(self, "_shape_text", None)
        if cached is None:
            cached = self._encode_canonical()[1]
        return cached

    def _encode_canonical(self) -> tuple[str, str]:
        """Cache and return :meth:`canonical_text` and :meth:`shape_text`,
        built from one :meth:`_canonical_fields`.

        The fields sort around ``seed``: the members before it and those
        after it (up to ``topology``) are encoded as two objects, and the
        seed, the topology and ``use_broadcast`` are joined in between.
        """
        fields = self._canonical_fields()
        seed, broadcast = fields.pop("seed"), fields.pop("use_broadcast")
        seed = scalar_json(seed) or canonical_json(seed)
        tail = f',"use_broadcast":{scalar_json(broadcast) or canonical_json(broadcast)}}}'
        head = canonical_json({k: v for k, v in fields.items() if k < "seed"})[:-1]
        rest = canonical_json({k: v for k, v in fields.items() if k > "seed"})[1:-1]
        topology = _topology_text(self.topology)
        canonical = f'{head},"seed":{seed},{rest},"topology":{topology}{tail}'
        shape = f"{head},{rest}{tail}{topology}"
        object.__setattr__(self, "_canonical_text", canonical)
        object.__setattr__(self, "_shape_text", shape)
        return canonical, shape

    def content_hash(self) -> str:
        """A stable SHA-256 hex digest of :meth:`canonical_text`, the
        scenario alone.

        Equal for any two scenarios describing the same run, regardless
        of construction order or display name.  It is not a store key:
        :mod:`repro.lab.store` addresses a run by
        :func:`repro.api.sweep.run_key`, which hashes the engine name and
        the run-key schema beside the same canonical text.
        """
        return sha256(self.canonical_text().encode()).hex()

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """The scenario a :meth:`to_dict` payload describes; raises the
        first problem :func:`repro.analysis.structure.decode_scenario`
        finds as a :class:`~repro.errors.ScenarioError`."""
        from repro.analysis.structure import decode_scenario

        fields, problems = decode_scenario(data)
        for problem in problems:
            raise ScenarioError(problem.message)
        return cls(**fields)
