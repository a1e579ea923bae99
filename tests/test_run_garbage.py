"""A finished simulated run leaves no cyclic garbage.

Reference counting alone frees a run's object graph — chains, ledgers,
contracts, parties, harness, execution — once its last reference goes:
chains reach the harness's record observer weakly, a contract reaches
its hosting chain weakly, and a drained queue holds no event.  So with
the cycle collector switched off, a finished run followed by
``gc.collect()`` finds nothing to collect.

Not covered, on purpose: a session abandoned mid-run and never
finalised.  Its queued entries still hold parties' bound methods, and
the parties reach the scheduler that holds them, so such a run stays a
cycle (about 180 objects on a 4-cycle) until the collector frees it.
``Execution.abort()`` drops the queue, which is why an aborted run is
covered.
"""

from __future__ import annotations

import gc

import pytest

from repro.api import Scenario, get_engine, list_engines
from repro.digraph.generators import complete_digraph, cycle_digraph, triangle
from repro.sim.faults import CrashPoint, FaultPlan


def garbage_left_by(action) -> int:
    """Objects the cycle collector finds after ``action()``, with the
    collector off while it runs."""
    action()  # first sight fills module-level memos, which are not garbage
    gc.collect()
    gc.disable()
    try:
        action()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("engine", list_engines())
def test_finished_run_leaves_no_cycles(engine):
    scenario = Scenario(triangle())
    assert garbage_left_by(lambda: get_engine(engine).run(scenario)) == 0


def test_herlihy_on_a_clique_leaves_no_cycles():
    scenario = Scenario(complete_digraph(4), use_broadcast=True)
    assert garbage_left_by(lambda: get_engine("herlihy").run(scenario)) == 0


@pytest.mark.parametrize(
    "faults",
    [
        FaultPlan().crash("P01", at_point=CrashPoint.BEFORE_PHASE_TWO),
        FaultPlan().crash("P02", at_time=2500),
    ],
    ids=["at-point", "at-time"],
)
def test_herlihy_crash_run_leaves_no_cycles(faults):
    scenario = Scenario(cycle_digraph(4), faults=faults)
    report = get_engine("herlihy").run(scenario)
    assert not report.all_deal()
    assert garbage_left_by(lambda: get_engine("herlihy").run(scenario)) == 0


def test_aborted_run_leaves_no_cycles():
    scenario = Scenario(cycle_digraph(4))

    def aborted() -> None:
        execution = get_engine("herlihy").open(scenario)
        assert execution.run_until("contract-escrowed") is not None
        report = execution.abort()
        assert report.extra["aborted"]["events_cancelled"] > 0

    assert garbage_left_by(aborted) == 0
