"""repro: a reproduction of "Atomic Cross-Chain Swaps" (Herlihy, PODC 2018).

Quickstart (legacy one-liner)::

    from repro import run_swap, triangle

    result = run_swap(triangle())   # Alice/Bob/Carol's three-way swap (§1)
    assert result.all_deal()
    print(result.summary())

Quickstart (unified engine API) — every protocol variant behind one
``Scenario -> Engine -> RunReport`` pipeline::

    from repro import Scenario, get_engine, list_engines, triangle

    scenario = Scenario(topology=triangle(), seed=7)
    for name in list_engines():          # herlihy, single-leader, multiswap,
        report = get_engine(name).run(scenario)   # naive-timelock, ...
        assert report.all_deal()
        print(name, report.completion_time, report.stored_bytes)

Batched comparisons fan out over a process pool::

    from repro import Sweep, run_sweep

    sweep = Sweep("compare").add_product(list_engines(), [triangle()])
    print(run_sweep(sweep).summary())

Submodules (see DESIGN.md for the full inventory):

* :mod:`repro.crypto`   — hashing, signatures, hashkey signature chains.
* :mod:`repro.digraph`  — swap digraphs and the graph algorithms they need.
* :mod:`repro.chain`    — simulated blockchains, assets, contract hosting.
* :mod:`repro.sim`      — discrete-event simulation with the paper's Δ model.
* :mod:`repro.core`     — the swap protocol (contracts, hashkeys, parties,
  market clearing, pebble games, single-leader timelocks, extensions).
* :mod:`repro.analysis` — outcome classification and game-theoretic checks.
* :mod:`repro.baselines`— comparison protocols (naive timelocks, sequential
  trust, trusted-coordinator 2PC).
* :mod:`repro.api`      — the unified Scenario/Engine/RunReport layer and
  the parallel sweep runner.
* :mod:`repro.lab`      — seeded workload generators (topology families ×
  adversary mixes) and the content-addressed run store that makes sweeps
  resumable (``run_sweep(..., store=...)``; warm re-runs execute zero
  engines).
* :mod:`repro.serve`    — the long-lived swap service: an asyncio daemon
  (``python -m repro serve``) with admission control, streaming milestone
  subscriptions, and the run store as a warm cache.
* :mod:`repro.fleet`    — the claim/lease work-queue coordinator: N worker
  processes drain one sweep grid through a shared SQLite store
  (``lab run --fleet N``, ``lab work``, ``lab fleet status``) with
  crash-safe lease expiry and atomic chunk commits.

The most common entry points are re-exported at the top level.
"""

from repro.analysis.outcomes import ACCEPTABLE_OUTCOMES, Outcome, classify_all
from repro.api import (
    Engine,
    RunReport,
    Scenario,
    Execution,
    Milestone,
    Sweep,
    SweepReport,
    get_engine,
    list_engines,
    register_engine,
    run_sweep,
)
from repro.core.clearing import MarketClearingService, Offer, ProposedTransfer
from repro.core.hashkey import Hashkey
from repro.core.protocol import SwapConfig, SwapResult, SwapSimulation, run_swap
from repro.core.spec import SwapSpec
from repro.core.timelocks import run_single_leader_swap
from repro.digraph.digraph import Digraph
from repro.digraph.generators import (
    complete_digraph,
    cycle_digraph,
    random_strongly_connected,
    triangle,
    two_leader_triangle,
)
from repro.digraph.multigraph import MultiDigraph
from repro.errors import ReproError, ScenarioError, UnknownEngineError
from repro.lab import Workload, build_sweep, open_store
from repro.sim.faults import Crash, CrashPoint, FaultPlan

__version__ = "1.9.0"

__all__ = [
    "ACCEPTABLE_OUTCOMES",
    "Outcome",
    "classify_all",
    "Engine",
    "Execution",
    "Milestone",
    "RunReport",
    "Scenario",
    "Sweep",
    "SweepReport",
    "get_engine",
    "list_engines",
    "register_engine",
    "run_sweep",
    "MarketClearingService",
    "Offer",
    "ProposedTransfer",
    "Hashkey",
    "SwapConfig",
    "SwapResult",
    "SwapSimulation",
    "run_swap",
    "SwapSpec",
    "run_single_leader_swap",
    "Digraph",
    "complete_digraph",
    "cycle_digraph",
    "random_strongly_connected",
    "triangle",
    "two_leader_triangle",
    "MultiDigraph",
    "ReproError",
    "ScenarioError",
    "UnknownEngineError",
    "Workload",
    "build_sweep",
    "open_store",
    "Crash",
    "CrashPoint",
    "FaultPlan",
    "__version__",
]
