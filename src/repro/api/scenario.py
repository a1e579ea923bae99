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
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from repro.core.protocol import SwapConfig
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
from repro.sim.faults import Crash, CrashPoint, FaultPlan
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


def _topology_to_dict(topology: Digraph | MultiDigraph) -> dict:
    if isinstance(topology, MultiDigraph):
        return {
            "kind": "multigraph",
            "vertices": list(topology.vertices),
            "arcs": [list(arc) for arc in topology.arcs],
        }
    return {"kind": "digraph", **topology.to_dict()}


def _topology_from_dict(data: dict) -> Digraph | MultiDigraph:
    if data.get("kind") == "multigraph":
        return MultiDigraph(
            data["vertices"], [tuple(arc) for arc in data["arcs"]]
        )
    return Digraph(data["vertices"], [tuple(arc) for arc in data["arcs"]])


def _faults_to_dict(faults: FaultPlan) -> dict:
    return {
        party: {
            "at_time": crash.at_time,
            "at_point": crash.at_point.value if crash.at_point else None,
        }
        for party, crash in faults.crashes.items()
    }


def _faults_from_dict(data: dict) -> FaultPlan:
    plan = FaultPlan()
    for party, crash in data.items():
        point = crash.get("at_point")
        plan.crash(
            party,
            at_time=crash.get("at_time"),
            at_point=CrashPoint(point) if point else None,
        )
    return plan


@dataclass(frozen=True)
class Scenario:
    """A frozen description of one protocol run.

    Engine-agnostic fields mirror :class:`repro.core.protocol.SwapConfig`;
    engine-specific knobs (attacker, defectors, Byzantine commit subsets,
    ...) ride in ``params`` — see each adapter in
    :mod:`repro.api.engines` for its recognised keys.
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
        if not isinstance(self.chain_delays, Mapping):
            raise ScenarioError(
                "chain_delays must map 'head->tail' (or 'broadcast') arc "
                f"labels to tick counts, got {type(self.chain_delays).__name__}"
            )
        # The arc set (and, for multigraphs, the simple projection) is
        # only needed when delays are actually present — which is never
        # the default-constructed case, so don't tax every Scenario.
        arcs = set(self.digraph().arcs) if self.chain_delays else set()
        delays: dict[str, int] = {}
        for key, delay in self.chain_delays.items():
            if not isinstance(key, str) or (
                key != "broadcast" and "->" not in key
            ):
                raise ScenarioError(
                    f"chain_delays key {key!r} is not an arc label; use "
                    "'head->tail' or 'broadcast'"
                )
            if key != "broadcast":
                # Fail at construction, not per-run: a typo'd arc in a
                # big sweep would otherwise persist a store full of
                # failure records before anyone notices.
                head, _, tail = key.partition("->")
                if (head, tail) not in arcs:
                    raise ScenarioError(
                        f"chain_delays key {key!r} names no arc of the "
                        f"topology; arcs: {sorted(arcs)}"
                    )
            if isinstance(delay, bool) or not isinstance(delay, int) or delay < 0:
                raise ScenarioError(
                    f"chain delay for {key!r} must be a non-negative tick "
                    f"count, got {delay!r}"
                )
            delays[key] = delay
        object.__setattr__(self, "chain_delays", delays)
        for vertex, strategy in self.strategies.items():
            if not isinstance(strategy, str):
                raise ScenarioError(
                    f"strategy for {vertex!r} must be a registered name "
                    f"(one of {sorted(STRATEGIES)}), got {strategy!r}"
                )

    # -- derived views -------------------------------------------------------

    def digraph(self) -> Digraph:
        """The underlying simple digraph (multigraphs project down)."""
        if isinstance(self.topology, MultiDigraph):
            return self.topology.underlying_simple()
        return self.topology

    def config(self) -> SwapConfig:
        """The equivalent legacy :class:`SwapConfig`."""
        return SwapConfig(
            delta=self.delta,
            timeout_slack=self.timeout_slack,
            scheme_name=self.scheme_name,
            start_time=self.start_time,
            use_broadcast=self.use_broadcast,
            reaction_fraction=self.reaction_fraction,
            action_fraction=self.action_fraction,
            seed=self.seed,
            exact_limit=self.exact_limit,
            diam_override=self.diam_override,
            timing=self.timing,
            chain_delays=dict(self.chain_delays) or None,
        )

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
        data = self._to_dict_full()
        if data["timing"] is None:
            del data["timing"]
        if not data["chain_delays"]:
            del data["chain_delays"]
        return data

    def _to_dict_full(self) -> dict:
        return {
            "topology": _topology_to_dict(self.topology),
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
        data = self._to_dict_full()
        del data["name"]
        if is_default_timing(data["timing"]):
            del data["timing"]
        if not data["chain_delays"]:
            del data["chain_delays"]
        topology = data["topology"]
        topology["vertices"] = sorted(topology["vertices"])
        topology["arcs"] = sorted(topology["arcs"])
        return data

    def canonical_text(self) -> str:
        """The canonical JSON encoding of :meth:`canonical_dict`, cached.

        Scenarios are frozen, so the canonical content never changes
        after construction — but re-canonicalizing it is measurable at
        sweep scale (every :func:`repro.api.sweep.run_key`, store
        lookup, sweep dedup pass, and serve warm-cache probe needs it).
        The encoding is computed on first use and the *identical string
        object* is returned ever after; :func:`repro.api.sweep.run_key`,
        :meth:`content_hash`, and the serve admission path all build on
        this one cache.
        """
        cached: str | None = getattr(self, "_canonical_text", None)
        if cached is None:
            cached = canonical_json(self.canonical_dict())
            object.__setattr__(self, "_canonical_text", cached)
        return cached

    def shape_text(self) -> str:
        """:meth:`canonical_text` with the seed masked out, cached the same way.

        The key of the fast path's shape memos
        (:mod:`repro.analysis.engine`): the seed only varies the leader
        secrets, so every seed of one shape shares its analysis and
        report template.
        """
        cached: str | None = getattr(self, "_shape_text", None)
        if cached is None:
            data = self.canonical_dict()
            data.pop("seed", None)
            cached = canonical_json(data)
            object.__setattr__(self, "_shape_text", cached)
        return cached

    def content_hash(self) -> str:
        """A stable SHA-256 hex digest of :meth:`canonical_dict`.

        Equal for any two scenarios describing the same run, regardless
        of construction order or display name; the basis of the
        :mod:`repro.lab.store` content addressing.
        """
        return sha256(self.canonical_text().encode()).hex()

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
        kwargs = dict(data)
        kwargs["topology"] = _topology_from_dict(data["topology"])
        if data.get("leaders") is not None:
            kwargs["leaders"] = tuple(data["leaders"])
        kwargs["faults"] = _faults_from_dict(data.get("faults", {}))
        return cls(**kwargs)
