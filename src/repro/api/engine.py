"""`Engine`: the uniform protocol-adapter contract plus its registry.

Every protocol variant in the library — the paper's hashkey protocol,
the §4.6 single-leader variant, the §5 multigraph extension, and the
three baselines — is exposed as an :class:`Engine` with two entry
points:

* ``run(scenario) -> RunReport`` — the one-shot contract every sweep,
  bench, and store uses;
* ``open(scenario) -> Execution`` — the instrumented lifecycle
  (:mod:`repro.api.execution`): the same prepared simulation, exposed
  as a steppable session with typed protocol milestones, read-only
  probes, and milestone interventions.  ``run()`` is literally
  ``open().run_to_completion()``, so the two are byte-identical on
  uninstrumented runs.

Engines implement :meth:`Engine.prepare`, returning a
:class:`~repro.api.execution.PreparedSimulation` (the assembled
harness, the protocol start time, and the result classifier), and
declare what they accept: :attr:`Engine.params` (the ``params`` keys
the protocol reads) and :attr:`Engine.honours` (the optional scenario
features it implements).  :meth:`Engine.refusals` lists, in order, a
field of the wrong type, what the engine does not honour (both as
:class:`~repro.errors.ScenarioError` diagnostics) and then the errors
of the scenario rule table
(:mod:`repro.analysis.structure`) that bind it; ``open`` and the direct
runners raise the first, as the exception its rule names (a
:class:`~repro.errors.SimulationError` for ``delta=0``, a
:class:`~repro.errors.ClearingError` for a duplicated leader, ...).
The static analyzer (:mod:`repro.analysis.protocol`), hence the fast
path and the serve gate, reports the same refusals in the same order.
The native result of a run is ``run(scenario).raw``.

Only protocols are engines.  The closed-form answer for a fully covered
``herlihy`` scenario is not a seventh one: front ends ask for it with
``fast_path=True`` and get it from
:func:`repro.analysis.engine.resolve_report`, under the same engine
name and run key as the simulated ``herlihy`` run.

Engines are looked up by name (:func:`get_engine`), so benchmarks and
sweeps can treat protocols as interchangeable modules and iterate over
:func:`list_engines`.  Lookup failures raise
:class:`repro.errors.UnknownEngineError`, whose message lists every
registered name.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import fields
from typing import Iterator

from repro.analysis.diagnostics import Diagnostic, error
from repro.analysis.structure import rule_refusals, type_refusals
from repro.api.execution import Execution, PreparedSimulation
from repro.api.report import RunReport
from repro.api.scenario import Scenario
from repro.digraph.multigraph import MultiDigraph
from repro.errors import EngineError, ReproError, ScenarioError, UnknownEngineError

_REGISTRY: dict[str, "Engine"] = {}

#: The run parameters only some protocols have (the §4.5 hashkey
#: timeouts, the broadcast unlock, the signature scheme): an engine that
#: does not honour one refuses any value but the ``Scenario`` default.
PROTOCOL_FIELDS: tuple[str, ...] = (
    "diam_override", "timeout_slack", "use_broadcast", "scheme_name",
)
_FIELD_DEFAULTS = {f.name: f.default for f in fields(Scenario) if f.name in PROTOCOL_FIELDS}


class Engine(ABC):
    """A registered protocol adapter with a uniform run contract.

    Subclasses implement :meth:`prepare` (abstract, so an engine without
    it cannot be instantiated), assembling (but not running) their
    simulation; :meth:`open` wraps the result in an
    :class:`~repro.api.execution.Execution` session and :meth:`run`
    drives that session to a :class:`RunReport`.
    """

    #: Registry key; subclasses must override.
    name: str = ""

    #: One-line human description for tables and ``list_engines`` docs.
    description: str = ""

    #: The ``Scenario.params`` keys the protocol reads; any other is refused.
    params: frozenset[str] = frozenset()

    #: The optional scenario features the protocol implements: named
    #: ``strategies``, crash ``faults``, ``parallel-arcs`` (a multigraph's
    #: keyed arcs), a leader set (``leaders``, or ``one-leader`` for at
    #: most one) and each of :data:`PROTOCOL_FIELDS`.  A scenario using
    #: any other is refused.
    honours: frozenset[str] = frozenset()

    def refusals(self, scenario: Scenario) -> tuple[Diagnostic, ...]:
        """Error diagnostics for everything that stops this engine running
        ``scenario`` (empty when it runs as described): first a field of
        the wrong type (:func:`~repro.analysis.structure.type_refusals`),
        then what it does not honour — params, strategies, faults, parallel arcs,
        leaders, then the :data:`PROTOCOL_FIELDS` — then the errors of
        the :mod:`repro.analysis.structure` rules that bind it.
        :meth:`open` raises the first."""
        return tuple(diagnostic for diagnostic, _ in self._refusals(scenario))

    def refuse(self, scenario: Scenario) -> None:
        """Raise the first of :meth:`refusals`, as the exception its rule
        names (a :class:`~repro.errors.ScenarioError` for a feature the
        engine does not honour); return when there is none.  Only error
        rules are evaluated, and only up to the first refusal."""
        for _, exception in self._refusals(scenario):
            raise exception

    def _refusals(self, scenario: Scenario) -> Iterator[tuple[Diagnostic, ReproError]]:
        yield from type_refusals(scenario)
        for diagnostic in self._unhonoured_features(scenario):
            yield diagnostic, ScenarioError(diagnostic.message)
        yield from rule_refusals(scenario, self.honours)

    def _unhonoured_features(self, scenario: Scenario) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        name = self.name
        unknown = set(scenario.params) - self.params
        if unknown:
            out.append(error(
                "engine/unknown-params", "/params",
                f"engine {name!r} does not recognise params "
                f"{sorted(unknown)}; allowed: {sorted(self.params) or 'none'}",
            ))
        if scenario.strategies and "strategies" not in self.honours:
            out.append(error(
                "engine/strategies", "/strategies",
                f"engine {name!r} does not accept named strategies "
                f"(its parties are not SwapParty subclasses); use params instead",
            ))
        if scenario.faults.crashes and "faults" not in self.honours:
            out.append(error(
                "engine/faults", "/faults",
                f"engine {name!r} has no crash-fault model; "
                f"drop the fault plan for {sorted(scenario.faults.crashes)}",
            ))
        topology = scenario.topology
        if isinstance(topology, MultiDigraph) and "parallel-arcs" not in self.honours:
            simple = scenario.digraph()
            if topology.arc_count() != simple.arc_count():
                out.append(error(
                    "engine/parallel-arcs", "/topology/arcs",
                    f"engine {name!r} runs on simple digraphs; the "
                    f"topology has {topology.arc_count()} keyed arcs over "
                    f"{simple.arc_count()} vertex pairs — use the 'multiswap' "
                    "engine to honour parallel arcs",
                ))
        leaders = scenario.leaders
        if leaders is not None and "leaders" not in self.honours:
            if "one-leader" not in self.honours:
                out.append(self._unhonoured("leaders", list(leaders)))
            elif len(leaders) > 1:
                out.append(error(
                    "engine/one-leader", "/leaders",
                    f"engine {name!r} supports exactly one leader; got "
                    f"{list(leaders)} — use the 'herlihy' engine for "
                    "multi-leader swaps",
                ))
        for field in PROTOCOL_FIELDS:
            value = getattr(scenario, field)
            if field not in self.honours and value != _FIELD_DEFAULTS[field]:
                out.append(self._unhonoured(field, value))
        return out

    def _unhonoured(self, field: str, value: object) -> Diagnostic:
        return error(
            "engine/unhonoured-field", f"/{field}",
            f"engine {self.name!r} does not honour {field} (its protocol "
            f"has no such parameter); drop {field}={value!r}",
        )

    @abstractmethod
    def prepare(self, scenario: Scenario) -> PreparedSimulation:
        """Assemble the simulation for ``scenario`` without running it."""

    def open(self, scenario: Scenario) -> Execution:
        """Prepare ``scenario`` and return the execution session.

        Raises the first of :meth:`refusals` (see :meth:`refuse`) when
        the engine cannot run ``scenario``.
        The session owns the prepared harness; drive it with ``step()``
        / ``run_until()`` / ``run_to_completion()``, register probes and
        interventions before the first step.  One session runs once.
        """
        started = time.perf_counter()
        self.refuse(scenario)
        return Execution(self.name, scenario, self.prepare(scenario), started)

    def run(self, scenario: Scenario) -> RunReport:
        """Execute ``scenario`` and return the unified :class:`RunReport`.

        Literally ``open(scenario).run_to_completion()`` — the one-shot
        contract and the session lifecycle are the same code path, so
        the two are byte-identical on uninstrumented runs.  The native
        result object remains reachable as ``report.raw``.
        """
        return self.open(scenario).run_to_completion()


def register_engine(engine: Engine) -> Engine:
    """Add an engine to the registry; returns it for chaining."""
    if not engine.name:
        raise EngineError(f"{type(engine).__name__} has no name")
    if engine.name in _REGISTRY:
        raise EngineError(f"engine {engine.name!r} is already registered")
    _REGISTRY[engine.name] = engine
    return engine


def get_engine(name: str) -> Engine:
    """Look up a registered engine by name.

    Raises :class:`UnknownEngineError` (listing the registered names)
    when no engine matches.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownEngineError(name, tuple(_REGISTRY)) from None


def list_engines() -> tuple[str, ...]:
    """All registered engine names, sorted."""
    return tuple(sorted(_REGISTRY))
