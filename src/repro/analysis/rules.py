"""Built-in lint rules: the repo's cross-cutting invariants, enforced.

Each rule documents the invariant it guards and the incident class that
motivated it; scopes are dotted-module prefixes, so fixtures can
impersonate a scoped module via ``lint_file(path, module=...)``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.analysis.lint import LintModule, LintRule, LintViolation
from repro.sim.milestones import MILESTONE_KINDS, SETTLED


def _in_scope(module: str, prefixes: Sequence[str]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


def _root_name(node: ast.expr) -> str | None:
    """The leftmost ``Name`` of an attribute chain (``a.b.c`` -> ``a``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class DeterminismRule(LintRule):
    """Run keys and content hashes must be reproducible.

    ``repro.lab.store`` addresses runs by a SHA-256 over the canonical
    scenario encoding; anything nondeterministic on that path silently
    splits the store.  Three checks, three scopes:

    * no *unseeded* randomness (module-level ``random.*`` calls or
      functions imported from ``random``) anywhere under ``repro.api``,
      ``repro.digraph``, ``repro.lab.store``, or ``repro.sim.trace`` —
      seeded ``random.Random(seed)`` instances are the sanctioned
      source;
    * no wall-clock reads in the hash-affecting modules
      (``repro.api.scenario``, ``repro.digraph``, ``repro.sim.trace`` —
      trace timestamps are model ticks, never wall time) — the store
      and sweep layers may stamp ``recorded_at``/``wall_seconds``
      observability metadata, which never enters a key;
    * no iteration-order dependence on set displays/comprehensions/
      constructors (``for x in {...}``, ``list(set(...))``,
      ``",".join({...})``) in the hash-affecting modules plus the store
      and the trace buffer — wrap in ``sorted(...)`` instead.

    ``repro.sim.trace`` is in every scope because the columnar trace
    buffer is the transcript of record: its rows become the milestone
    counts stored beside each run entry and the event census the
    closed-form fast path must reproduce byte-for-byte, so any
    nondeterminism here silently breaks analytic/simulated parity.

    ``repro.fleet`` is in the random and set-iteration scopes — its
    backoff jitter must come from seeded streams and its chunk/claim
    ordering from sorted or sequenced iteration — but deliberately
    *not* the wall-clock scope: lease expiry is inherently wall-time,
    and like ``recorded_at`` those timestamps are coordination
    metadata that never enters a run key.
    """

    name = "determinism"
    description = (
        "no unseeded random, wall-clock reads, or set-iteration order "
        "dependence in run-key-affecting modules"
    )

    RANDOM_SCOPE: tuple[str, ...] = (
        "repro.api",
        "repro.digraph",
        "repro.fleet",
        "repro.lab.store",
        "repro.sim.trace",
    )
    WALL_CLOCK_SCOPE: tuple[str, ...] = (
        "repro.api.scenario",
        "repro.digraph",
        "repro.sim.trace",
    )
    SET_ITER_SCOPE: tuple[str, ...] = (
        "repro.api.scenario",
        "repro.digraph",
        "repro.fleet",
        "repro.lab.store",
        "repro.sim.trace",
    )

    #: ``random``-module attributes that are fine: seeded generator
    #: classes and state plumbing, not draws from the global generator.
    _RANDOM_OK = frozenset({"Random", "SystemRandom", "getstate", "setstate"})
    _CLOCK_ATTRS = frozenset(
        {
            "time",
            "time_ns",
            "perf_counter",
            "perf_counter_ns",
            "monotonic",
            "monotonic_ns",
        }
    )
    _ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "iter"})

    def check(self, module: LintModule) -> Iterator[LintViolation]:
        if not _in_scope(module.module, self.RANDOM_SCOPE) and not _in_scope(
            module.module, self.SET_ITER_SCOPE
        ):
            return
        check_random = _in_scope(module.module, self.RANDOM_SCOPE)
        check_clock = _in_scope(module.module, self.WALL_CLOCK_SCOPE)
        check_sets = _in_scope(module.module, self.SET_ITER_SCOPE)
        from_random: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                from_random.update(
                    alias.asname or alias.name
                    for alias in node.names
                    if alias.name not in self._RANDOM_OK
                )
        for node in ast.walk(module.tree):
            if check_random:
                yield from self._check_random(module, node, from_random)
            if check_clock:
                yield from self._check_clock(module, node)
            if check_sets:
                yield from self._check_sets(module, node)

    def _check_random(
        self, module: LintModule, node: ast.AST, from_random: set[str]
    ) -> Iterator[LintViolation]:
        if not isinstance(node, ast.Call):
            return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
            and func.attr not in self._RANDOM_OK
        ):
            yield self.violation(
                module,
                node,
                f"unseeded global randomness random.{func.attr}() in a "
                "run-key-affecting module; draw from a seeded "
                "random.Random(seed) instance instead",
            )
        elif isinstance(func, ast.Name) and func.id in from_random:
            yield self.violation(
                module,
                node,
                f"unseeded global randomness {func.id}() (imported from "
                "random) in a run-key-affecting module; draw from a "
                "seeded random.Random(seed) instance instead",
            )

    def _check_clock(
        self, module: LintModule, node: ast.AST
    ) -> Iterator[LintViolation]:
        if not isinstance(node, ast.Call):
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        root = _root_name(func)
        if root == "time" and func.attr in self._CLOCK_ATTRS:
            yield self.violation(
                module,
                node,
                f"wall-clock read time.{func.attr}() in a hash-affecting "
                "module; run keys must not depend on when they were "
                "computed",
            )
        elif root in ("datetime", "date") and func.attr in ("now", "utcnow", "today"):
            yield self.violation(
                module,
                node,
                f"wall-clock read {root}.{func.attr}() in a hash-affecting "
                "module; run keys must not depend on when they were "
                "computed",
            )

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def _check_sets(
        self, module: LintModule, node: ast.AST
    ) -> Iterator[LintViolation]:
        sources: list[ast.expr] = []
        if isinstance(node, ast.For) and self._is_set_expr(node.iter):
            sources.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            sources.extend(
                comp.iter for comp in node.generators if self._is_set_expr(comp.iter)
            )
        elif isinstance(node, ast.Call):
            func = node.func
            order_sensitive = (
                isinstance(func, ast.Name)
                and func.id in self._ORDER_SENSITIVE_CALLS
            ) or (isinstance(func, ast.Attribute) and func.attr == "join")
            if order_sensitive:
                sources.extend(arg for arg in node.args if self._is_set_expr(arg))
        for source in sources:
            yield self.violation(
                module,
                source,
                "iteration over an unordered set expression in a "
                "run-key-affecting module; wrap it in sorted(...) to pin "
                "the order",
            )


class MilestoneLiteralRule(LintRule):
    """Milestone strings must come from :mod:`repro.sim.milestones`.

    The milestone vocabulary is load-bearing in three layers (tracker,
    execution sessions, wire schema); a typo'd literal fails silently —
    a subscriber filter that never matches.  This rule bans the
    hyphenated kind literals everywhere except the defining module.
    ``"settled"`` is exempt: it doubles as a job *state* in
    ``repro.serve.service``, which is a different (deliberately
    overlapping) vocabulary.
    """

    name = "milestone-literals"
    description = (
        "milestone kind strings must be the repro.sim.milestones "
        "constants, not literals"
    )

    DEFINING_MODULE = "repro.sim.milestones"
    BANNED: frozenset[str] = frozenset(MILESTONE_KINDS) - {SETTLED}

    def check(self, module: LintModule) -> Iterator[LintViolation]:
        if not _in_scope(module.module, ("repro",)):
            return
        if module.module == self.DEFINING_MODULE:
            return
        skip = module.docstring_nodes()
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in self.BANNED
                and id(node) not in skip
            ):
                yield self.violation(
                    module,
                    node,
                    f"milestone kind literal {node.value!r}; import the "
                    "constant from repro.sim.milestones instead",
                )


class WireSchemaRule(LintRule):
    """``repro.serve.events`` must cover the milestone vocabulary.

    The wire schema is the only layer a remote client sees; if it drifts
    from the simulator's vocabulary, milestones either fail to encode or
    pass through unvalidated.  Checks, on the AST of the events module:
    ``WIRE_MILESTONE_KINDS`` aliases ``MILESTONE_KINDS`` (an alias, not
    a copy — copies rot), both codec functions validate against
    ``MILESTONE_KINDS``, the envelope vocabulary contains
    ``"milestone"``, and every terminal event is an envelope event.
    """

    name = "wire-schema"
    description = (
        "repro.serve.events must validate against the full milestone "
        "vocabulary and keep the envelope event kinds consistent"
    )

    TARGET_MODULE = "repro.serve.events"
    CODEC_FUNCTIONS = ("milestone_to_wire", "milestone_from_wire")

    @staticmethod
    def _assigned(tree: ast.Module, name: str) -> ast.expr | None:
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        return node.value
            elif isinstance(node, ast.AnnAssign):
                if (
                    isinstance(node.target, ast.Name)
                    and node.target.id == name
                ):
                    return node.value
        return None

    @staticmethod
    def _string_elements(node: ast.expr | None) -> set[str] | None:
        """String elements of a tuple/list/set display or a
        ``frozenset({...})`` / ``set({...})`` call; None if not one."""
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("frozenset", "set") and len(node.args) == 1:
                node = node.args[0]
        if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return None
        elements: set[str] = set()
        for element in node.elts:
            if not isinstance(element, ast.Constant) or not isinstance(
                element.value, str
            ):
                return None
            elements.add(element.value)
        return elements

    def check(self, module: LintModule) -> Iterator[LintViolation]:
        if module.module != self.TARGET_MODULE:
            return
        tree = module.tree
        wire_kinds = self._assigned(tree, "WIRE_MILESTONE_KINDS")
        if not (
            isinstance(wire_kinds, ast.Name)
            and wire_kinds.id == "MILESTONE_KINDS"
        ):
            yield self.violation(
                module,
                wire_kinds if wire_kinds is not None else tree,
                "WIRE_MILESTONE_KINDS must alias "
                "repro.sim.milestones.MILESTONE_KINDS verbatim (an alias, "
                "not a copy), so the wire schema can never lag the "
                "milestone vocabulary",
            )
        event_kinds_node = self._assigned(tree, "EVENT_KINDS")
        event_kinds = self._string_elements(event_kinds_node)
        if event_kinds is None or "milestone" not in event_kinds:
            yield self.violation(
                module,
                event_kinds_node if event_kinds_node is not None else tree,
                "EVENT_KINDS must be a literal tuple of envelope event "
                "names including 'milestone'",
            )
        terminal_node = self._assigned(tree, "TERMINAL_EVENTS")
        terminal = self._string_elements(terminal_node)
        if terminal is None:
            yield self.violation(
                module,
                terminal_node if terminal_node is not None else tree,
                "TERMINAL_EVENTS must be a literal frozenset of event names",
            )
        elif event_kinds is not None and not terminal <= event_kinds:
            extra = ", ".join(sorted(terminal - event_kinds))
            yield self.violation(
                module,
                terminal_node,
                f"TERMINAL_EVENTS names unknown envelope events: {extra}",
            )
        for name in self.CODEC_FUNCTIONS:
            func = next(
                (
                    node
                    for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == name
                ),
                None,
            )
            if func is None:
                yield self.violation(
                    module, tree, f"wire codec function {name}() is missing"
                )
                continue
            validates = any(
                isinstance(node, ast.Name) and node.id == "MILESTONE_KINDS"
                for node in ast.walk(func)
            )
            if not validates:
                yield self.violation(
                    module,
                    func,
                    f"{name}() never checks the milestone kind against "
                    "MILESTONE_KINDS; an off-vocabulary milestone would "
                    "cross the wire unvalidated",
                )


#: Every built-in rule, in the order the CLI lists them.
BUILTIN_RULES: tuple[type[LintRule], ...] = (
    DeterminismRule,
    MilestoneLiteralRule,
    WireSchemaRule,
)
