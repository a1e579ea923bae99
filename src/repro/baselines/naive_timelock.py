"""Baseline B1: hashed timelocks with *naive* (equal) timeout values.

§1 warns: "Timelock values matter.  If Carol's contract with Bob were to
expire at the same time as Bob's contract with Alice, then Carol could
reveal s to collect Bob's bitcoins at the very last moment, leaving Bob no
time to collect his alt-coins from Alice."

This baseline reuses the single-leader machinery of
:mod:`repro.core.timelocks` but assigns every arc the *same* timeout —
the mistake an unsophisticated implementation makes.  All-conforming runs
complete fine, which is exactly what makes the bug dangerous; the
:class:`LastMomentSingleLeaderParty` adversary then strands its victim
Underwater, and the coalition {attacker, leader} profits (the protocol is
neither uniform nor a strong Nash equilibrium).  Bench E17 contrasts this
with the hashkey protocol, where the same behaviour is harmless
(Lemma 4.8).
"""

from __future__ import annotations

from typing import Any

from repro.core.spec import resolve_start
from repro.core.timelocks import (
    SingleLeaderParty,
    SingleLeaderSimulation,
    equal_timeouts,
)
from repro.digraph.digraph import Arc, Vertex


class LastMomentSingleLeaderParty(SingleLeaderParty):
    """Delays every unlock until just before the (shared) timeout."""

    def unlock_delay(self, arc: Arc) -> int:
        deadline = self.spec.timeouts[arc]
        margin = max(1, self.spec.delta // 100)
        return max(self.profile.action_delay, deadline - margin - self.scheduler.now)


def _prepare_naive_timelock_swap(
    scenario: Any, leader: Vertex | None = None
) -> SingleLeaderSimulation:
    """Assemble (without running) the equal-timeout swap simulation of
    ``scenario``, whose ``params`` may name an ``attacker`` and a shared
    ``timeout_multiple``."""
    timeouts = equal_timeouts(
        scenario.digraph(),
        scenario.delta,
        start_time=resolve_start(scenario),
        multiple=scenario.params.get("timeout_multiple"),
    )
    attacker = scenario.params.get("attacker")
    strategies = {}
    if attacker is not None:
        strategies[attacker] = LastMomentSingleLeaderParty
    return SingleLeaderSimulation(
        scenario, leader=leader, strategies=strategies, timeouts=timeouts
    )
