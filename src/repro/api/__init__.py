"""repro.api: the unified protocol-engine layer.

Three nouns cover every protocol in the library:

* :class:`Scenario` — a frozen, serializable description of one run
  (topology, Δ-model parameters, fault plan, strategy assignments, seed,
  engine-specific params);
* :class:`Engine` — a registered protocol adapter with a uniform
  ``run(scenario) -> RunReport`` contract plus the instrumented
  lifecycle ``open(scenario) -> Execution`` (typed protocol milestones,
  read-only probes, milestone interventions — see
  :mod:`repro.api.execution`); six ship by default: ``herlihy``,
  ``single-leader``, ``multiswap``, ``naive-timelock``,
  ``sequential-trust``, ``2pc``;
* :class:`RunReport` — one result shape for all of them: per-party
  Fig.-3 outcomes, triggered/refunded arcs, model and wall time,
  message/byte metrics, ``to_dict()``/``from_dict()`` round-trip.

Quickstart::

    from repro.api import Scenario, get_engine, list_engines

    scenario = Scenario(topology=triangle(), seed=7)
    for name in list_engines():
        report = get_engine(name).run(scenario)
        print(name, report.all_deal())

Batched comparison with process-pool fan-out::

    from repro.api import Sweep, run_sweep

    sweep = Sweep("compare").add_product(list_engines(), [triangle()])
    print(run_sweep(sweep).summary())

Passing ``store=`` (see :mod:`repro.lab.store`) makes sweeps resumable:
runs are content-addressed by :func:`run_key` and warm re-runs execute
zero engines.
"""

from repro.api.engine import Engine, get_engine, list_engines, register_engine
from repro.api.execution import (
    Execution,
    ExecutionView,
    PreparedSimulation,
)
from repro.api.engines import (
    ENGINES,
    HerlihyEngine,
    MultiswapEngine,
    NaiveTimelockEngine,
    SequentialTrustEngine,
    SingleLeaderEngine,
    TwoPhaseCommitEngine,
)
from repro.api.report import RunReport
from repro.api.scenario import (
    STRATEGIES,
    Scenario,
    canonical_json,
    resolve_strategy,
)
from repro.api.sweep import (
    FailedRun,
    Sweep,
    SweepProgress,
    SweepReport,
    derive_seed,
    execute_chunk,
    execute_payload,
    run_key,
    run_sweep,
    smoke_sweep,
    synthesize_entry,
)
from repro.errors import (
    EngineError,
    ExecutionError,
    ScenarioError,
    UnknownEngineError,
    UnknownStrategyError,
)
from repro.sim.milestones import MILESTONE_KINDS, Milestone

__all__ = [
    "Engine",
    "Execution",
    "ExecutionView",
    "PreparedSimulation",
    "Milestone",
    "MILESTONE_KINDS",
    "get_engine",
    "list_engines",
    "register_engine",
    "ENGINES",
    "HerlihyEngine",
    "SingleLeaderEngine",
    "MultiswapEngine",
    "NaiveTimelockEngine",
    "SequentialTrustEngine",
    "TwoPhaseCommitEngine",
    "RunReport",
    "Scenario",
    "STRATEGIES",
    "canonical_json",
    "resolve_strategy",
    "FailedRun",
    "Sweep",
    "SweepProgress",
    "SweepReport",
    "derive_seed",
    "execute_chunk",
    "execute_payload",
    "run_key",
    "run_sweep",
    "smoke_sweep",
    "synthesize_entry",
    "EngineError",
    "ExecutionError",
    "ScenarioError",
    "UnknownEngineError",
    "UnknownStrategyError",
]
