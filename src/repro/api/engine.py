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
harness, the protocol start time, and the result classifier).  The
pre-1.5 ``Engine.execute()`` one-shot hook — deprecated in 1.5.0 — is
gone; the native result of a run is ``run(scenario).raw``.

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
from abc import ABC

from repro.api.execution import Execution, PreparedSimulation
from repro.api.report import RunReport
from repro.api.scenario import Scenario
from repro.errors import EngineError, UnknownEngineError

_REGISTRY: dict[str, "Engine"] = {}


class Engine(ABC):
    """A registered protocol adapter with a uniform run contract.

    Subclasses implement :meth:`prepare`, assembling (but not running)
    their simulation; :meth:`open` wraps the result in an
    :class:`~repro.api.execution.Execution` session and :meth:`run`
    drives that session to a :class:`RunReport`.
    """

    #: Registry key; subclasses must override.
    name: str = ""

    #: One-line human description for tables and ``list_engines`` docs.
    description: str = ""

    def prepare(self, scenario: Scenario) -> PreparedSimulation:
        """Assemble the simulation for ``scenario`` without running it."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement prepare()"
        )

    def open(self, scenario: Scenario) -> Execution:
        """Prepare ``scenario`` and return the execution session.

        The session owns the prepared harness; drive it with ``step()``
        / ``run_until()`` / ``run_to_completion()``, register probes and
        interventions before the first step.  One session runs once.
        """
        if type(self).prepare is Engine.prepare:
            raise EngineError(
                f"engine {self.name!r} does not implement prepare(); "
                "every engine must support the execution-session API "
                "(the pre-1.5 execute()-only contract was removed in "
                "1.6.0)"
            )
        started = time.perf_counter()
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
