"""Structural well-formedness checks for scenarios and raw payloads.

Two layers, matching the two places malformed scenarios arrive:

* :func:`check_payload` inspects a *raw JSON-compatible dict* — the body
  of a ``repro.serve`` submission — before any object is constructed.
  It never raises: every problem (bad vertex list, self-loop arc,
  zero Δ, typo'd ``chain_delays`` label, ...) becomes a
  :class:`~repro.analysis.diagnostics.Diagnostic` whose ``path`` points
  into the payload (``"/topology/arcs/3"``), which is exactly what the
  pre-admission gate returns in its structured 400 body.

* :func:`check_scenario` inspects a constructed
  :class:`~repro.api.scenario.Scenario` — the graph-level facts a type
  system cannot see: strong connectivity (Theorem 3.5's precondition),
  leader sets that fail to be feedback vertex sets (Theorem 4.12),
  ``diam_override`` underestimates that would void the §4 deadline
  ladder, crash plans naming unknown parties.

A payload that passes :func:`check_payload` with no ``error`` always
constructs via ``Scenario.from_dict``; a scenario that additionally
passes :func:`check_scenario` is structurally fit for the closed-form
predictor (:mod:`repro.analysis.predict`).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.analysis.diagnostics import Diagnostic, error, warning
from repro.api.scenario import STRATEGIES, Scenario
from repro.digraph.digraph import Digraph
from repro.digraph.feedback import feedback_vertex_set, is_feedback_vertex_set
from repro.digraph.multigraph import MultiDigraph
from repro.digraph.paths import diameter, is_strongly_connected
from repro.sim.faults import CrashPoint

#: Scenario fields a submission payload may carry (mirrors the dataclass).
_SCENARIO_FIELDS: frozenset[str] = frozenset(
    (
        "topology",
        "name",
        "leaders",
        "delta",
        "timeout_slack",
        "start_time",
        "use_broadcast",
        "reaction_fraction",
        "action_fraction",
        "seed",
        "exact_limit",
        "diam_override",
        "scheme_name",
        "timing",
        "faults",
        "strategies",
        "params",
        "chain_delays",
    )
)

_CRASH_POINTS: frozenset[str] = frozenset(p.value for p in CrashPoint)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return _is_int(value) or isinstance(value, float)


# ---------------------------------------------------------------------------
# payload layer
# ---------------------------------------------------------------------------


def _check_topology(data: Any, out: list[Diagnostic]) -> tuple[set[str], set[tuple[str, str]], bool]:
    """Validate ``payload["topology"]``; returns (vertices, arc pairs,
    is_multigraph) for the cross-field checks that follow."""
    vertices: set[str] = set()
    pairs: set[tuple[str, str]] = set()
    if not isinstance(data, Mapping):
        out.append(
            error(
                "topology/not-a-dict",
                "/topology",
                f"topology must be an object, got {type(data).__name__}",
            )
        )
        return vertices, pairs, False
    kind = data.get("kind", "digraph")
    multi = kind == "multigraph"
    if kind not in ("digraph", "multigraph"):
        out.append(
            error(
                "topology/unknown-kind",
                "/topology/kind",
                f"topology kind must be 'digraph' or 'multigraph', got {kind!r}",
            )
        )
    raw_vertices = data.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        out.append(
            error(
                "topology/vertices-missing",
                "/topology/vertices",
                "topology needs a non-empty list of vertex names",
            )
        )
        raw_vertices = []
    for i, v in enumerate(raw_vertices):
        if not isinstance(v, str) or not v:
            out.append(
                error(
                    "topology/bad-vertex",
                    f"/topology/vertices/{i}",
                    f"vertices must be non-empty strings, got {v!r}",
                )
            )
        elif v in vertices:
            out.append(
                error(
                    "topology/duplicate-vertex",
                    f"/topology/vertices/{i}",
                    f"duplicate vertex {v!r}",
                )
            )
        else:
            vertices.add(v)
    raw_arcs = data.get("arcs")
    if not isinstance(raw_arcs, list):
        out.append(
            error(
                "topology/arcs-missing",
                "/topology/arcs",
                "topology needs a list of arcs",
            )
        )
        raw_arcs = []
    seen_arcs: set[tuple[Any, ...]] = set()
    for i, arc in enumerate(raw_arcs):
        path = f"/topology/arcs/{i}"
        width = 3 if multi else 2
        if not isinstance(arc, (list, tuple)) or len(arc) != width:
            shape = "[head, tail, key]" if multi else "[head, tail]"
            out.append(
                error(
                    "topology/bad-arc",
                    path,
                    f"arcs must be {shape} entries, got {arc!r}",
                )
            )
            continue
        u, v = arc[0], arc[1]
        if not isinstance(u, str) or not isinstance(v, str):
            out.append(
                error(
                    "topology/bad-arc",
                    path,
                    f"arc endpoints must be vertex names, got {arc!r}",
                )
            )
            continue
        if u == v:
            out.append(
                error(
                    "topology/self-loop",
                    path,
                    f"self-loop arc ({u!r} -> {v!r}) is not allowed: an arc "
                    "transfers an asset between distinct parties (§2.1)",
                )
            )
            continue
        if multi and not _is_int(arc[2]):
            out.append(
                error(
                    "topology/bad-arc-key",
                    f"{path}/2",
                    f"parallel-arc keys must be integers, got {arc[2]!r}",
                )
            )
            continue
        missing = [w for w in (u, v) if w not in vertices]
        if missing:
            out.append(
                error(
                    "topology/unknown-vertex",
                    path,
                    f"arc ({u!r} -> {v!r}) uses undeclared vertices: "
                    f"{sorted(missing)}",
                )
            )
            continue
        dedup_key = tuple(arc)
        if dedup_key in seen_arcs:
            label = "parallel arc key" if multi else "arc"
            out.append(
                error(
                    "topology/duplicate-arc",
                    path,
                    f"duplicate {label} {arc!r}"
                    + ("" if multi else "; use a multigraph for parallel arcs"),
                )
            )
            continue
        seen_arcs.add(dedup_key)
        pairs.add((u, v))
    if vertices and not pairs and raw_arcs == []:
        out.append(
            error(
                "topology/no-arcs",
                "/topology/arcs",
                "a swap digraph needs at least one arc",
            )
        )
    return vertices, pairs, multi


#: The scalar spec parameters both layers check: field -> (code, lowest
#: valid value, what the value counts).  ``start_time`` and
#: ``diam_override`` may also be ``None`` (unset).
_SCALAR_RULES: dict[str, tuple[str, int, str]] = {
    "delta": ("timing/bad-delta", 1, "a positive tick count"),
    "timeout_slack": ("timing/bad-slack", 0, "a non-negative Δ count"),
    "start_time": ("timing/bad-start", 0, "a non-negative tick"),
    "diam_override": ("timing/bad-diam", 1, "a diameter of at least 1"),
}


def _check_scalar_fields(data: Mapping[str, Any], out: list[Diagnostic]) -> None:
    """Δ, the timeout slack, the start time and the ``diam`` override,
    each an integer no lower than the engines accept (an absent field
    takes its valid default)."""
    for name, (code, lowest, meaning) in _SCALAR_RULES.items():
        if name not in data:
            continue
        value = data[name]
        if value is None and name in ("start_time", "diam_override"):
            continue
        if not _is_int(value) or value < lowest:
            out.append(
                error(code, f"/{name}", f"{name} must be {meaning}, got {value!r}")
            )


def _check_timing_fields(data: Mapping[str, Any], out: list[Diagnostic]) -> None:
    _check_scalar_fields(data, out)
    total = 0.0
    for name in ("reaction_fraction", "action_fraction"):
        value = data.get(name, 0.25)
        if not _is_number(value) or isinstance(value, bool) or value < 0:
            out.append(
                error(
                    "timing/bad-fraction",
                    f"/{name}",
                    f"{name} must be a non-negative Δ fraction, got {value!r}",
                )
            )
        else:
            total += float(value)
    if total > 1.0:
        out.append(
            warning(
                "timing/nonconforming-fractions",
                "/reaction_fraction",
                "reaction_fraction + action_fraction exceeds 1.0: parties "
                "violate the conforming round-trip ≤ Δ assumption (§4.2), "
                "so the Theorem 4.2 guarantees do not apply",
            )
        )


def _check_chain_delays(
    data: Any,
    pairs: set[tuple[str, str]],
    multi: bool,
    parallel: set[tuple[str, str]],
    out: list[Diagnostic],
) -> None:
    if data is None:
        return
    if not isinstance(data, Mapping):
        out.append(
            error(
                "chain-delays/not-a-dict",
                "/chain_delays",
                "chain_delays must map 'head->tail' (or 'broadcast') arc "
                f"labels to tick counts, got {type(data).__name__}",
            )
        )
        return
    for key, delay in data.items():
        path = f"/chain_delays/{key}"
        if not isinstance(key, str) or (key != "broadcast" and "->" not in key):
            out.append(
                error(
                    "chain-delays/bad-label",
                    path,
                    f"chain_delays key {key!r} is not an arc label; use "
                    "'head->tail' or 'broadcast'",
                )
            )
            continue
        if key != "broadcast":
            head, _, tail = key.partition("->")
            if (head, tail) not in pairs:
                out.append(
                    error(
                        "chain-delays/unknown-arc",
                        path,
                        f"chain_delays key {key!r} names no arc of the "
                        "topology",
                    )
                )
            elif multi and (head, tail) in parallel:
                out.append(
                    warning(
                        "chain-delays/ambiguous-label",
                        path,
                        f"label {key!r} matches multiple parallel arcs of "
                        "the multigraph; the delay applies to the shared "
                        "chain, not to one keyed arc",
                    )
                )
        if not _is_int(delay) or delay < 0:
            out.append(
                error(
                    "chain-delays/bad-delay",
                    path,
                    f"chain delay for {key!r} must be a non-negative tick "
                    f"count, got {delay!r}",
                )
            )


def _check_parties(
    data: Mapping[str, Any], vertices: set[str], out: list[Diagnostic]
) -> None:
    leaders = data.get("leaders")
    if leaders is not None:
        if not isinstance(leaders, (list, tuple)):
            out.append(
                error(
                    "leaders/not-a-list",
                    "/leaders",
                    f"leaders must be a list of vertices, got {leaders!r}",
                )
            )
        else:
            if len(leaders) == 0:
                out.append(
                    error(
                        "leaders/empty",
                        "/leaders",
                        "explicit leader set is empty: the protocol needs a "
                        "non-empty feedback vertex set (Theorem 4.12)",
                    )
                )
            for i, leader in enumerate(leaders):
                if leader not in vertices:
                    out.append(
                        error(
                            "leaders/unknown-vertex",
                            f"/leaders/{i}",
                            f"leader {leader!r} is not a vertex of the topology",
                        )
                    )
    faults = data.get("faults", {})
    if not isinstance(faults, Mapping):
        out.append(
            error(
                "faults/not-a-dict",
                "/faults",
                f"faults must map party -> crash spec, got {type(faults).__name__}",
            )
        )
        faults = {}
    for party, crash in faults.items():
        path = f"/faults/{party}"
        if party not in vertices:
            out.append(
                error(
                    "faults/unknown-party",
                    path,
                    f"crash victim {party!r} is not a vertex of the topology",
                )
            )
        if not isinstance(crash, Mapping):
            out.append(
                error(
                    "faults/bad-crash",
                    path,
                    f"crash spec must be an object, got {crash!r}",
                )
            )
            continue
        at_time = crash.get("at_time")
        at_point = crash.get("at_point")
        if at_time is None and at_point is None:
            out.append(
                error(
                    "faults/bad-crash",
                    path,
                    "crash spec needs at_time or at_point",
                )
            )
        if at_point is not None and at_point not in _CRASH_POINTS:
            out.append(
                error(
                    "faults/unknown-crash-point",
                    f"{path}/at_point",
                    f"unknown crash point {at_point!r}; known: "
                    f"{', '.join(sorted(_CRASH_POINTS))}",
                )
            )
        if at_time is not None and (not _is_int(at_time) or at_time < 0):
            out.append(
                error(
                    "faults/bad-crash",
                    f"{path}/at_time",
                    f"crash at_time must be a non-negative tick, got {at_time!r}",
                )
            )
    strategies = data.get("strategies", {})
    if not isinstance(strategies, Mapping):
        out.append(
            error(
                "strategies/not-a-dict",
                "/strategies",
                "strategies must map party -> registered strategy name, "
                f"got {type(strategies).__name__}",
            )
        )
        strategies = {}
    for party, name in strategies.items():
        path = f"/strategies/{party}"
        if party not in vertices:
            out.append(
                error(
                    "strategies/unknown-party",
                    path,
                    f"strategy assignee {party!r} is not a vertex of the topology",
                )
            )
        if name not in STRATEGIES:
            out.append(
                error(
                    "strategies/unknown-name",
                    path,
                    f"unknown strategy {name!r}; registered: "
                    f"{', '.join(sorted(STRATEGIES))}",
                )
            )


def check_payload(data: Any) -> tuple[Diagnostic, ...]:
    """Diagnose a raw scenario dict without constructing anything.

    Shape-level checks only (the graph-level checks need a constructed
    :class:`Scenario` — see :func:`check_scenario`).  A payload with no
    ``error``-severity diagnostics always constructs via
    ``Scenario.from_dict``.
    """
    out: list[Diagnostic] = []
    if not isinstance(data, Mapping):
        return (
            error(
                "payload/not-a-dict",
                "",
                f"scenario must be an object, got {type(data).__name__}",
            ),
        )
    for key in sorted(set(data) - _SCENARIO_FIELDS):
        out.append(
            error(
                "payload/unknown-field",
                f"/{key}",
                f"unknown scenario field {key!r}; accepted: "
                f"{', '.join(sorted(_SCENARIO_FIELDS))}",
            )
        )
    if "topology" not in data:
        out.append(
            error("topology/missing", "/topology", "scenario needs a topology")
        )
        return tuple(out)
    vertices, pairs, multi = _check_topology(data["topology"], out)
    parallel: set[tuple[str, str]] = set()
    if multi and isinstance(data["topology"], Mapping):
        raw_arcs = data["topology"].get("arcs") or []
        if isinstance(raw_arcs, list):
            counts: dict[tuple[str, str], int] = {}
            for arc in raw_arcs:
                if isinstance(arc, (list, tuple)) and len(arc) == 3:
                    u, v = arc[0], arc[1]
                    if isinstance(u, str) and isinstance(v, str):
                        counts[(u, v)] = counts.get((u, v), 0) + 1
            parallel = {pair for pair, n in counts.items() if n > 1}
    _check_timing_fields(data, out)
    _check_chain_delays(data.get("chain_delays"), pairs, multi, parallel, out)
    if vertices:
        _check_parties(data, vertices, out)
    return tuple(out)


# ---------------------------------------------------------------------------
# scenario layer
# ---------------------------------------------------------------------------


def check_scenario(scenario: Scenario) -> tuple[Diagnostic, ...]:
    """Diagnose the graph-level structure of a constructed scenario.

    Covers the scalar spec parameters the engines refuse (the same
    rules :func:`check_payload` applies to a raw payload) and the facts
    the payload layer cannot see: Theorem 3.5's strong connectivity
    precondition, leader sets that are empty or fail to be feedback
    vertex sets, ``diam_override`` underestimates, and broadcast delays
    configured on a non-broadcast run.
    """
    out: list[Diagnostic] = []
    _check_scalar_fields({name: getattr(scenario, name) for name in _SCALAR_RULES}, out)
    digraph: Digraph = scenario.digraph()
    if digraph.arc_count() == 0:
        out.append(
            error(
                "digraph/no-arcs",
                "/topology/arcs",
                "a swap digraph needs at least one arc",
            )
        )
        return tuple(out)
    connected = is_strongly_connected(digraph)
    if not connected:
        out.append(
            error(
                "digraph/not-strongly-connected",
                "/topology",
                "the swap digraph is not strongly connected: the protocol's "
                "uniform-outcome guarantee fails (Theorem 3.5 / Lemma 3.4 "
                "free-riding), so engines refuse this topology",
            )
        )
    if scenario.leaders is not None:
        unknown = [v for v in scenario.leaders if not digraph.has_vertex(v)]
        for leader in unknown:
            out.append(
                error(
                    "leaders/unknown-vertex",
                    "/leaders",
                    f"leader {leader!r} is not a vertex of the topology",
                )
            )
        if len(scenario.leaders) == 0:
            out.append(
                error(
                    "leaders/empty",
                    "/leaders",
                    "explicit leader set is empty: the protocol needs a "
                    "non-empty feedback vertex set (Theorem 4.12)",
                )
            )
        elif connected and not unknown and not is_feedback_vertex_set(
            digraph, set(scenario.leaders)
        ):
            out.append(
                error(
                    "leaders/not-feedback-vertex-set",
                    "/leaders",
                    f"leaders {sorted(scenario.leaders)} are not a feedback "
                    "vertex set: a follower cycle survives, so Phase One "
                    "deadlocks (Theorem 4.12)",
                )
            )
    elif connected:
        # An arcless graph never gets here; a strongly connected digraph
        # with arcs always has a cycle, hence a non-empty FVS — but the
        # exact solver may have fallen back to a heuristic, so surface
        # the computed set being degenerate anyway.
        if not feedback_vertex_set(digraph, exact_limit=scenario.exact_limit):
            out.append(
                error(
                    "leaders/empty",
                    "/topology",
                    "no non-empty feedback vertex set was found",
                )
            )
    if connected and _is_int(scenario.diam_override) and scenario.diam_override >= 1:
        true_diam = diameter(digraph, exact_limit=scenario.exact_limit)
        if scenario.diam_override < true_diam:
            out.append(
                warning(
                    "timing/diam-underestimate",
                    "/diam_override",
                    f"diam_override={scenario.diam_override} is below the "
                    f"digraph's diameter {true_diam}: the §4.1 deadline "
                    "ladder is compressed and conforming parties can miss "
                    "live hashkeys",
                )
            )
    if "broadcast" in scenario.chain_delays and not scenario.use_broadcast:
        out.append(
            warning(
                "chain-delays/broadcast-unused",
                "/chain_delays/broadcast",
                "a 'broadcast' chain delay is configured but use_broadcast "
                "is false; the delay never applies",
            )
        )
    if isinstance(scenario.topology, MultiDigraph):
        if scenario.topology.arc_count() > digraph.arc_count():
            out.append(
                warning(
                    "topology/parallel-arcs",
                    "/topology/arcs",
                    "the multigraph has parallel arcs: only the 'multiswap' "
                    "engine (§5) executes it; simple-digraph engines refuse",
                )
            )
    for party in scenario.faults.crashes:
        if not digraph.has_vertex(party):
            out.append(
                error(
                    "faults/unknown-party",
                    f"/faults/{party}",
                    f"crash victim {party!r} is not a vertex of the topology",
                )
            )
    for party, name in scenario.strategies.items():
        if not digraph.has_vertex(party):
            out.append(
                error(
                    "strategies/unknown-party",
                    f"/strategies/{party}",
                    f"strategy assignee {party!r} is not a vertex of the "
                    "topology",
                )
            )
        if name not in STRATEGIES:
            out.append(
                error(
                    "strategies/unknown-name",
                    f"/strategies/{party}",
                    f"unknown strategy {name!r}; registered: "
                    f"{', '.join(sorted(STRATEGIES))}",
                )
            )
    return tuple(out)
