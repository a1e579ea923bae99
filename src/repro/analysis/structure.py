"""Scenario validity: one payload decoder and one ordered rule table.

Every precondition a scenario must meet is stated once, here, as a row
of :data:`RULES` (or of :data:`TYPE_RULES` or :data:`CONSTRUCTION_RULES`).
A row maps a scenario to :class:`~repro.analysis.diagnostics.Diagnostic`\\ s
and carries:

* its diagnostic ``code`` — one per fact;
* the JSON path of each finding, indexed where the field is a list or
  an object (``"/leaders/1"``, ``"/faults/Zoe"``);
* for an error, the exception an engine raises for it — its class and
  its message are the ``herlihy`` engine's words (a rule that calls a
  library lookup, such as the signature-scheme registry or the
  feedback-vertex-set check, re-raises that lookup's own error);
* ``binds``: the :attr:`~repro.api.engine.Engine.honours` features an
  engine must declare for the rule to bind it (empty: every engine).
  The leader rules bind ``leaders`` and ``one-leader``, so the §4.6
  engines refuse an empty, duplicated, unknown or non-FVS leader set
  exactly as ``herlihy`` does.

The table has these readers and no copy:

* :func:`check_scenario` returns every finding of the whole table (the
  engine-free view, in ``herlihy``'s words);
* :func:`type_refusals` returns the :data:`TYPE_RULES` findings — the
  payload decoder's ``payload/bad-type`` checks, in its words, for a
  scenario built in Python — which every engine raises before anything
  else it refuses, so the engine, the analyzer and the serve gate name
  the same mistyped field first;
* :meth:`Engine.refusals <repro.api.engine.Engine.refusals>` returns
  the engine's declared refusals, then :func:`rule_refusals` — the
  errors of the rows that bind it — and ``Engine.open`` and the direct
  runners raise the first one; the analyzer
  (:mod:`repro.analysis.protocol`) reports :func:`rule_warnings` and
  then those same refusals, so the analyzer, the fast path and the
  serve gate refuse what the engine refuses, with its message;
* ``Scenario.__post_init__`` raises the first of
  :func:`construction_refusals` — chain-delay labels, arcs and values,
  and strategy names that must be strings — as a
  :class:`~repro.errors.ScenarioError`.

:func:`decode_scenario` turns a raw JSON-compatible dict (a
``repro.serve`` submission body) into ``Scenario`` keyword arguments,
collecting every shape problem with its path — object shape, unknown
fields, topology vertices and arcs (per-arc paths), crash specs, the
timing spec — instead of raising.  ``Scenario.from_dict`` raises the
first; :func:`~repro.analysis.protocol.check_submission` reports all of
them, then the table's findings on whatever decoded.

What stays outside the table: :class:`~repro.core.spec.SwapSpec`'s own
checks (the market-clearing service publishes specs without a
scenario) and the :class:`~repro.digraph.digraph.Digraph` /
:class:`~repro.digraph.multigraph.MultiDigraph` constructor invariants.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from repro.analysis.diagnostics import ERROR, WARNING, Diagnostic, error
from repro.api.scenario import Scenario, resolve_strategy
from repro.core.spec import resolve_leaders
from repro.crypto.signatures import get_scheme
from repro.digraph.digraph import Digraph
from repro.digraph.feedback import require_feedback_vertex_set
from repro.digraph.multigraph import MultiDigraph
from repro.digraph.paths import diameter, is_strongly_connected
from repro.errors import (
    ClearingError,
    DigraphError,
    NotFeedbackVertexSetError,
    NotStronglyConnectedError,
    ReproError,
    ScenarioError,
    SignatureError,
    SimulationError,
    TimingError,
    UnknownStrategyError,
)
from repro.sim.faults import CrashPoint, FaultPlan
from repro.sim.timing import timing_to_dict

#: Theorem 3.5's precondition in the words every engine refuses it with.
NOT_STRONGLY_CONNECTED = (
    "SwapSimulation requires a strongly connected digraph (Theorem 3.5; "
    "see repro.analysis.attacks for the impossibility constructions)"
)

#: The same fact in the words of the two §4.6 hashed-timelock engines
#: (``one-leader``), which their stored failure entries carry.
ONE_LEADER_NOT_STRONGLY_CONNECTED = "swap digraphs must be strongly connected"


def unknown_party(role: str, party: Any) -> str:
    """The refusal text for a ``role`` ("strategy", "fault") naming a
    party that is not a vertex of the topology."""
    return f"{role} for unknown party {party!r}"


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: Fields whose value must be of one JSON type (the tick fields and Δ
#: fractions have rules of their own).
_FIELD_TYPES: dict[str, type] = {
    "name": str, "scheme_name": str, "use_broadcast": bool, "seed": int, "exact_limit": int,
}


def _type_problems(values: Mapping[str, Any]) -> Iterator[tuple[str, str]]:
    """``(field, message)`` for each of :data:`_FIELD_TYPES` whose value
    in ``values`` (a default when absent) is not of its type."""
    for key, kind in _FIELD_TYPES.items():
        value = values.get(key, kind())
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            yield key, f"{key} must be a {kind.__name__}, got {value!r}"


# ---------------------------------------------------------------------------
# the rule table
# ---------------------------------------------------------------------------


class _Facts:
    """What the rules read of one scenario, each graph fact computed at
    most once.  ``honours`` is the evaluating engine's declaration
    (``None``: the engine-free view of :func:`check_scenario`)."""

    def __init__(self, scenario: Any, honours: frozenset[str] | None = None) -> None:
        self.scenario = scenario
        self.honours = honours
        topology = scenario.topology
        self.multi = isinstance(topology, MultiDigraph)
        self.digraph: Digraph = topology.underlying_simple() if self.multi else topology
        delays = scenario.chain_delays
        self.delays: Mapping[Any, Any] = delays if isinstance(delays, Mapping) else {}
        self.leaders: tuple[Any, ...] = getattr(scenario, "leaders", None) or ()
        self._connected: bool | None = None

    @property
    def connected(self) -> bool:
        """Strongly connected with at least one arc."""
        if self._connected is None:
            self._connected = self.digraph.arc_count() > 0 and is_strongly_connected(
                self.digraph
            )
        return self._connected


Finding = tuple[str, Any]
"""``(path, exception)`` for an error, ``(path, message)`` for a warning."""


@dataclass(frozen=True)
class Rule:
    """One row of the table: ``find`` yields a rule's findings."""

    code: str
    severity: str
    binds: frozenset[str]
    find: Callable[[_Facts], Iterable[Finding]]


#: The scenario rules, in the order an engine meets them.
RULES: list[Rule] = []

#: The rules ``Scenario.__post_init__`` enforces (every one an error).
CONSTRUCTION_RULES: list[Rule] = []

#: The field-type rules (every one an error), met before anything else
#: an engine refuses.
TYPE_RULES: list[Rule] = []


def _rule(
    code: str, severity: str = ERROR, binds: Iterable[str] = (), table: list[Rule] = RULES
) -> Callable[[Callable[[_Facts], Iterable[Finding]]], Any]:
    def register(find: Callable[[_Facts], Iterable[Finding]]) -> Any:
        table.append(Rule(code, severity, frozenset(binds), find))
        return find

    return register


@lru_cache(maxsize=None)
def _binding(honours: frozenset[str], severity: str) -> tuple[Rule, ...]:
    """The rows of :data:`RULES` of ``severity`` that bind an engine
    honouring ``honours``, in table order."""
    return tuple(
        rule for rule in RULES
        if rule.severity == severity and (not rule.binds or rule.binds & honours)
    )


def _findings(rules: Iterable[Rule], facts: _Facts) -> Iterator[tuple[Diagnostic, Any]]:
    for rule in rules:
        for path, found in rule.find(facts):
            yield Diagnostic(rule.code, path, rule.severity, str(found)), found


# -- construction ------------------------------------------------------------


@_rule("chain-delays/not-a-dict", table=CONSTRUCTION_RULES)
def _delays_are_a_mapping(f: _Facts) -> Iterator[Finding]:
    delays = f.scenario.chain_delays
    if not isinstance(delays, Mapping):
        yield "/chain_delays", ScenarioError(
            "chain_delays must map 'head->tail' (or 'broadcast') arc labels "
            f"to tick counts, got {type(delays).__name__}"
        )


def _is_label(key: Any) -> bool:
    return isinstance(key, str) and (key == "broadcast" or "->" in key)


@_rule("chain-delays/bad-label", table=CONSTRUCTION_RULES)
def _delay_labels(f: _Facts) -> Iterator[Finding]:
    for key in f.delays:
        if not _is_label(key):
            yield f"/chain_delays/{key}", ScenarioError(
                f"chain_delays key {key!r} is not an arc label; use "
                "'head->tail' or 'broadcast'"
            )


@_rule("chain-delays/unknown-arc", table=CONSTRUCTION_RULES)
def _delay_arcs(f: _Facts) -> Iterator[Finding]:
    for key in f.delays:
        if _is_label(key) and key != "broadcast":
            head, _, tail = key.partition("->")
            if not f.digraph.has_arc(head, tail):
                yield f"/chain_delays/{key}", ScenarioError(
                    f"chain_delays key {key!r} names no arc of the "
                    f"topology; arcs: {sorted(f.digraph.arcs)}"
                )


@_rule("chain-delays/bad-delay", table=CONSTRUCTION_RULES)
def _delay_values(f: _Facts) -> Iterator[Finding]:
    for key, delay in f.delays.items():
        if not _is_int(delay) or delay < 0:
            yield f"/chain_delays/{key}", ScenarioError(
                f"chain delay for {key!r} must be a non-negative tick "
                f"count, got {delay!r}"
            )


@_rule("strategies/not-a-name", table=CONSTRUCTION_RULES)
def _strategy_names_are_strings(f: _Facts) -> Iterator[Finding]:
    for party, name in f.scenario.strategies.items():
        if not isinstance(name, str):
            yield f"/strategies/{party}", ScenarioError(
                f"strategy for {party!r} must be a registered name, got {name!r}"
            )


# -- field types -------------------------------------------------------------


@_rule("payload/bad-type", table=TYPE_RULES)
def _field_types(f: _Facts) -> Iterator[Finding]:
    """The payload decoder's type checks, for a scenario built in Python."""
    values = {key: getattr(f.scenario, key) for key in _FIELD_TYPES}
    for key, message in _type_problems(values):
        yield f"/{key}", ScenarioError(message)


# -- the scenario ------------------------------------------------------------


@_rule("strategies/unknown-name", binds={"strategies"})
def _strategy_names(f: _Facts) -> Iterator[Finding]:
    for party, name in f.scenario.strategies.items():
        try:
            resolve_strategy(name)
        except UnknownStrategyError as exc:
            yield f"/strategies/{party}", exc


@_rule("topology/no-arcs")
def _has_arcs(f: _Facts) -> Iterator[Finding]:
    if f.digraph.arc_count() == 0:
        yield "/topology/arcs", DigraphError("a swap digraph needs at least one arc")


@_rule("digraph/not-strongly-connected")
def _strongly_connected(f: _Facts) -> Iterator[Finding]:
    if f.digraph.arc_count() > 0 and not f.connected:
        one_leader = f.honours is not None and "one-leader" in f.honours
        yield "/topology", NotStronglyConnectedError(
            ONE_LEADER_NOT_STRONGLY_CONNECTED if one_leader else NOT_STRONGLY_CONNECTED
        )


def _integer_ticks(name: str) -> Callable[[_Facts], Iterator[Finding]]:
    """The rule that field ``name`` holds an integer tick count (or
    ``None``, unset, where that is the field's default)."""
    unset_allowed = Scenario.__dataclass_fields__[name].default is None

    def find(f: _Facts) -> Iterator[Finding]:
        value = getattr(f.scenario, name)
        if not _is_int(value) and not (unset_allowed and value is None):
            yield f"/{name}", ScenarioError(
                f"{name} must be an integer tick count, got {value!r}"
            )

    return find


_rule("timing/bad-delta")(_integer_ticks("delta"))
_rule("timing/bad-slack", binds={"timeout_slack"})(_integer_ticks("timeout_slack"))
_rule("timing/bad-start")(_integer_ticks("start_time"))
_rule("timing/bad-diam", binds={"diam_override"})(_integer_ticks("diam_override"))


def _below(f: _Facts, name: str, lowest: int) -> bool:
    value = getattr(f.scenario, name)
    return _is_int(value) and value < lowest


@_rule("timing/bad-delta")
def _positive_delta(f: _Facts) -> Iterator[Finding]:
    if _below(f, "delta", 1):
        yield "/delta", SimulationError("delta must be positive")


def _fraction_is_bad(value: Any) -> bool:
    return not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0


@_rule("timing/bad-fraction")
def _fractions(f: _Facts) -> Iterator[Finding]:
    for name in ("reaction_fraction", "action_fraction"):
        value = getattr(f.scenario, name)
        if _fraction_is_bad(value):
            yield f"/{name}", SimulationError(
                f"{name} must be a non-negative Δ fraction, got {value!r}"
            )


@_rule("strategies/unknown-party", binds={"strategies"})
def _strategy_parties(f: _Facts) -> Iterator[Finding]:
    for party in f.scenario.strategies:
        if not f.digraph.has_vertex(party):
            yield f"/strategies/{party}", SimulationError(unknown_party("strategy", party))


@_rule("faults/unknown-party", binds={"faults"})
def _fault_parties(f: _Facts) -> Iterator[Finding]:
    for party in f.scenario.faults.crashes:
        if not f.digraph.has_vertex(party):
            yield f"/faults/{party}", SimulationError(unknown_party("fault", party))


@_rule("engine/unknown-scheme", binds={"scheme_name"})
def _scheme_known(f: _Facts) -> Iterator[Finding]:
    if isinstance(f.scenario.scheme_name, str):  # else a type finding
        try:
            get_scheme(f.scenario.scheme_name)
        except SignatureError as exc:
            yield "/scheme_name", exc


@_rule("engine/one-time-scheme", binds={"scheme_name"})
def _one_time_scheme(f: _Facts) -> Iterator[Finding]:
    if (
        f.scenario.scheme_name == "lamport"
        and len(resolve_leaders(f.scenario, f.digraph)) > 1
    ):
        yield "/scheme_name", SignatureError(
            "Lamport keys are one-time, but a multi-leader swap makes each "
            "party sign one hashkey extension per lock; use a multi-use "
            "scheme (ecdsa-secp256k1 or hmac-registry) or a single-leader "
            "digraph"
        )


_LEADER_SETS = {"leaders", "one-leader"}


@_rule("leaders/duplicate", binds=_LEADER_SETS)
def _distinct_leaders(f: _Facts) -> Iterator[Finding]:
    seen: set[Any] = set()
    for i, leader in enumerate(f.leaders):
        if leader in seen:
            yield f"/leaders/{i}", ClearingError("duplicate leader")
            return
        seen.add(leader)


@_rule("leaders/empty", binds=_LEADER_SETS)
def _some_leader(f: _Facts) -> Iterator[Finding]:
    if f.scenario.leaders is not None and not f.leaders:
        yield "/leaders", ClearingError("at least one leader is required")


@_rule("leaders/unknown-vertex", binds=_LEADER_SETS)
def _leaders_are_parties(f: _Facts) -> Iterator[Finding]:
    for i, leader in enumerate(f.leaders):
        if not f.digraph.has_vertex(leader):
            yield f"/leaders/{i}", ClearingError(f"leader {leader!r} is not a party")


@_rule("leaders/not-feedback-vertex-set", binds=_LEADER_SETS)
def _leaders_break_every_cycle(f: _Facts) -> Iterator[Finding]:
    leaders = f.leaders
    if f.connected and leaders and all(f.digraph.has_vertex(v) for v in leaders):
        try:
            require_feedback_vertex_set(f.digraph, set(leaders))
        except NotFeedbackVertexSetError as exc:
            yield "/leaders", exc


@_rule("timing/bad-start")
def _start_not_negative(f: _Facts) -> Iterator[Finding]:
    if _below(f, "start_time", 0):
        yield "/start_time", ClearingError("start_time must be non-negative")


@_rule("timing/bad-diam", binds={"diam_override"})
def _diam_at_least_one(f: _Facts) -> Iterator[Finding]:
    if _below(f, "diam_override", 1):
        yield "/diam_override", ClearingError("diam must be at least 1")


@_rule("timing/bad-slack", binds={"timeout_slack"})
def _slack_not_negative(f: _Facts) -> Iterator[Finding]:
    if _below(f, "timeout_slack", 0):
        yield "/timeout_slack", ClearingError("timeout_slack must be non-negative")


# -- warnings ----------------------------------------------------------------


@_rule("timing/nonconforming-fractions", WARNING)
def _conforming_fractions(f: _Facts) -> Iterator[Finding]:
    values = (f.scenario.reaction_fraction, f.scenario.action_fraction)
    if not any(map(_fraction_is_bad, values)) and sum(values) > 1.0:
        yield "/reaction_fraction", (
            "reaction_fraction + action_fraction exceeds 1.0: parties "
            "violate the conforming round-trip ≤ Δ assumption (§4.2), "
            "so the Theorem 4.2 guarantees do not apply"
        )


@_rule("timing/diam-underestimate", WARNING, binds={"diam_override"})
def _diam_covers_the_digraph(f: _Facts) -> Iterator[Finding]:
    override, limit = f.scenario.diam_override, f.scenario.exact_limit
    if _is_int(override) and override >= 1 and _is_int(limit) and f.connected:
        true_diam = diameter(f.digraph, exact_limit=limit)
        if override < true_diam:
            yield "/diam_override", (
                f"diam_override={override} is below the digraph's diameter "
                f"{true_diam}: the §4.1 deadline ladder is compressed and "
                "conforming parties can miss live hashkeys"
            )


@_rule("chain-delays/broadcast-unused", WARNING)
def _broadcast_delay_applies(f: _Facts) -> Iterator[Finding]:
    if "broadcast" in f.delays and not f.scenario.use_broadcast:
        yield "/chain_delays/broadcast", (
            "a 'broadcast' chain delay is configured but use_broadcast is "
            "false; the delay never applies"
        )


@_rule("chain-delays/ambiguous-label", WARNING)
def _delay_names_one_arc(f: _Facts) -> Iterator[Finding]:
    for key in f.delays if f.multi else ():
        if _is_label(key) and f.scenario.topology.multiplicity(*key.partition("->")[::2]) > 1:
            yield f"/chain_delays/{key}", (
                f"label {key!r} matches multiple parallel arcs of the "
                "multigraph; the delay applies to the shared chain, not to "
                "one keyed arc"
            )


@_rule("topology/parallel-arcs", WARNING)
def _no_parallel_arcs(f: _Facts) -> Iterator[Finding]:
    if f.multi and f.scenario.topology.arc_count() > f.digraph.arc_count():
        yield "/topology/arcs", (
            "the multigraph has parallel arcs: only the 'multiswap' engine "
            "(§5) executes it; simple-digraph engines refuse"
        )


# -- the readers -------------------------------------------------------------


def check_scenario(scenario: Scenario) -> tuple[Diagnostic, ...]:
    """Every finding of the whole table on a constructed scenario, in
    table order and in ``herlihy``'s words — the engine-free view."""
    return tuple(d for d, _ in _findings([*TYPE_RULES, *RULES], _Facts(scenario)))


def type_refusals(scenario: Scenario) -> Iterator[tuple[Diagnostic, ReproError]]:
    """The field-type errors of ``scenario``, each with the
    :class:`~repro.errors.ScenarioError` every engine raises for it."""
    return _findings(TYPE_RULES, _Facts(scenario))


def rule_refusals(
    scenario: Scenario, honours: frozenset[str]
) -> Iterator[tuple[Diagnostic, ReproError]]:
    """The table's errors that bind an engine honouring ``honours``, each
    with the exception that engine raises for it, lazily in table order."""
    return _findings(_binding(honours, ERROR), _Facts(scenario, honours))


def rule_warnings(scenario: Scenario, honours: frozenset[str]) -> list[Diagnostic]:
    """The table's warnings that bind an engine honouring ``honours``."""
    return [d for d, _ in _findings(_binding(honours, WARNING), _Facts(scenario, honours))]


def construction_refusals(scenario: Any) -> list[tuple[Diagnostic, ReproError]]:
    """What ``Scenario.__post_init__`` refuses in ``scenario`` (anything
    with the ``topology``, ``chain_delays`` and ``strategies`` fields)."""
    return list(_findings(CONSTRUCTION_RULES, _Facts(scenario)))


# ---------------------------------------------------------------------------
# the payload decoder
# ---------------------------------------------------------------------------

#: Scenario fields a submission payload may carry (mirrors the dataclass).
_SCENARIO_FIELDS: frozenset[str] = frozenset(Scenario.__dataclass_fields__)

_CRASH_POINTS: frozenset[str] = frozenset(p.value for p in CrashPoint)

def _decode_topology(data: Any, out: list[Diagnostic]) -> Digraph | MultiDigraph | None:
    """The topology of ``payload["topology"]``, or ``None`` after
    reporting why it cannot be built."""
    if not isinstance(data, Mapping):
        out.append(error(
            "topology/not-a-dict", "/topology",
            f"topology must be an object, got {type(data).__name__}",
        ))
        return None
    problems = len(out)
    kind = data.get("kind", "digraph")
    multi = kind == "multigraph"
    if kind not in ("digraph", "multigraph"):
        out.append(error(
            "topology/unknown-kind", "/topology/kind",
            f"topology kind must be 'digraph' or 'multigraph', got {kind!r}",
        ))
    raw_vertices = data.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        out.append(error(
            "topology/vertices-missing", "/topology/vertices",
            "topology needs a non-empty list of vertex names",
        ))
        raw_vertices = []
    vertices: set[str] = set()
    for i, v in enumerate(raw_vertices):
        if not isinstance(v, str) or not v:
            out.append(error(
                "topology/bad-vertex", f"/topology/vertices/{i}",
                f"vertices must be non-empty strings, got {v!r}",
            ))
        elif v in vertices:
            out.append(error(
                "topology/duplicate-vertex", f"/topology/vertices/{i}",
                f"duplicate vertex {v!r}",
            ))
        else:
            vertices.add(v)
    raw_arcs = data.get("arcs")
    if not isinstance(raw_arcs, list):
        out.append(error(
            "topology/arcs-missing", "/topology/arcs", "topology needs a list of arcs"
        ))
        raw_arcs = []
    width = 3 if multi else 2
    arcs: list[Any] = []
    seen: set[tuple[Any, ...]] = set()
    for i, arc in enumerate(raw_arcs):
        if isinstance(arc, (list, tuple)) and len(arc) == width:
            u, v = arc[0], arc[1]
            key = tuple(arc)
            if (
                isinstance(u, str) and isinstance(v, str) and u != v
                and u in vertices and v in vertices
                and (not multi or _is_int(arc[2])) and key not in seen
            ):
                seen.add(key)
                arcs.append(key)
                continue
        out.append(_arc_problem(arc, f"/topology/arcs/{i}", multi, vertices))
    if len(out) > problems:
        return None
    # Every check the constructors make was made above: build in one walk.
    if multi:
        return MultiDigraph.from_checked(raw_vertices, arcs)
    return Digraph.from_checked(raw_vertices, arcs)


def _arc_problem(arc: Any, path: str, multi: bool, vertices: set[str]) -> Diagnostic:
    """Why ``arc`` cannot be the next arc of the topology (a repeat when
    nothing else is wrong with it)."""
    if not isinstance(arc, (list, tuple)) or len(arc) != (3 if multi else 2):
        shape = "[head, tail, key]" if multi else "[head, tail]"
        return error("topology/bad-arc", path, f"arcs must be {shape} entries, got {arc!r}")
    u, v = arc[0], arc[1]
    if not isinstance(u, str) or not isinstance(v, str):
        return error("topology/bad-arc", path, f"arc endpoints must be vertex names, got {arc!r}")
    if u == v:
        return error(
            "topology/self-loop", path,
            f"self-loop arc ({u!r} -> {v!r}) is not allowed: an arc transfers "
            "an asset between distinct parties (§2.1)",
        )
    if multi and not _is_int(arc[2]):
        return error(
            "topology/bad-arc-key", f"{path}/2",
            f"parallel-arc keys must be integers, got {arc[2]!r}",
        )
    if u not in vertices or v not in vertices:
        missing = sorted(w for w in (u, v) if w not in vertices)
        return error(
            "topology/unknown-vertex", path,
            f"arc ({u!r} -> {v!r}) uses undeclared vertices: {missing}",
        )
    return error(
        "topology/duplicate-arc", path,
        f"duplicate {'parallel arc key' if multi else 'arc'} {arc!r}"
        + ("" if multi else "; use a multigraph for parallel arcs"),
    )


def _decode_faults(data: Any, out: list[Diagnostic]) -> FaultPlan:
    """The crash specs of ``payload["faults"]``; a malformed one is
    reported and left out."""
    plan = FaultPlan()
    if not isinstance(data, Mapping):
        out.append(error(
            "faults/not-a-dict", "/faults",
            f"faults must map party -> crash spec, got {type(data).__name__}",
        ))
        return plan
    for party, crash in data.items():
        path = f"/faults/{party}"
        if not isinstance(crash, Mapping):
            out.append(error("faults/bad-crash", path, f"crash spec must be an object, got {crash!r}"))
            continue
        at_time, at_point = crash.get("at_time"), crash.get("at_point")
        if at_time is None and at_point is None:
            out.append(error("faults/bad-crash", path, "crash spec needs at_time or at_point"))
        elif at_point is not None and at_point not in _CRASH_POINTS:
            out.append(error(
                "faults/unknown-crash-point", f"{path}/at_point",
                f"unknown crash point {at_point!r}; known: {', '.join(sorted(_CRASH_POINTS))}",
            ))
        elif at_time is not None and (not _is_int(at_time) or at_time < 0):
            out.append(error(
                "faults/bad-crash", f"{path}/at_time",
                f"crash at_time must be a non-negative tick, got {at_time!r}",
            ))
        else:
            plan.crash(
                party, at_time=at_time, at_point=CrashPoint(at_point) if at_point else None
            )
    return plan


def decode_scenario(data: Any) -> tuple[dict[str, Any] | None, list[Diagnostic]]:
    """``Scenario`` keyword arguments decoded from a raw dict, and every
    shape problem found on the way (each with its payload path).

    Never raises.  The arguments are ``None`` when no topology could be
    built; otherwise a malformed optional field is reported and left
    out, so the rule table can still diagnose the rest.
    """
    problems: list[Diagnostic] = []
    if not isinstance(data, Mapping):
        problems.append(error(
            "payload/not-a-dict", "", f"scenario must be an object, got {type(data).__name__}"
        ))
        return None, problems
    for key in sorted(set(data) - _SCENARIO_FIELDS):
        problems.append(error(
            "payload/unknown-field", f"/{key}",
            f"unknown scenario field {key!r}; accepted: {', '.join(sorted(_SCENARIO_FIELDS))}",
        ))
    if "topology" not in data:
        problems.append(error("topology/missing", "/topology", "scenario needs a topology"))
        return None, problems
    topology = _decode_topology(data["topology"], problems)
    if topology is None:
        return None, problems
    fields = {k: v for k, v in data.items() if k in _SCENARIO_FIELDS}
    fields["topology"] = topology
    for key, message in list(_type_problems(fields)):
        problems.append(error("payload/bad-type", f"/{key}", message))
        del fields[key]
    leaders = data.get("leaders")
    if leaders is not None:
        if isinstance(leaders, (list, tuple)) and all(isinstance(v, str) for v in leaders):
            fields["leaders"] = tuple(leaders)
        else:
            problems.append(error(
                "leaders/not-a-list", "/leaders",
                f"leaders must be a list of vertex names, got {leaders!r}",
            ))
            del fields["leaders"]
    if "faults" in data:
        fields["faults"] = _decode_faults(data["faults"], problems)
    if not isinstance(data.get("strategies", {}), Mapping):
        problems.append(error(
            "strategies/not-a-dict", "/strategies",
            "strategies must map party -> registered strategy name, "
            f"got {type(data['strategies']).__name__}",
        ))
        del fields["strategies"]
    if data.get("timing") is not None:
        try:
            timing_to_dict(data["timing"])
        except TimingError as exc:
            problems.append(error("timing/bad-spec", "/timing", str(exc)))
            del fields["timing"]
    return fields, problems
