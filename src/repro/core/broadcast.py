"""The Phase-Two broadcast optimisation (§4.5), as a measurable feature.

"There is a simple optimization that ensures that Phase Two completes in
constant time when all parties conform to the protocol.  We use a shared
blockchain ... as a broadcast medium.  Each leader publishes its secret
on the shared blockchain, and each follower monitors that blockchain,
triggering its entering arcs when it learns the secret.  (Logically, we
create an arc from each follower directly to that leader.)  Unfortunately
... it cannot replace [Phase Two], because a deviating leader might
refrain from publishing the secret on that blockchain, but publish it on
others."

The mechanics live inside the core protocol (``SwapConfig.use_broadcast``
turns them on; parties both broadcast *and* run the normal relay, exactly
because the broadcast cannot be relied upon).  This module provides the
measurement helpers bench E14 uses to show the effect: Phase-Two latency
becomes (almost) independent of ``diam(D)`` with the broadcast enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.protocol import SwapConfig, SwapResult, run_swap
from repro.digraph.digraph import Digraph
from repro.sim import trace as tr


@dataclass(frozen=True)
class PhaseTwoTiming:
    """Phase-Two latency extracted from one run's trace."""

    phase_two_start: int
    """When the first leader began disseminating (first phase-2 marker)."""
    completion: int
    """When the last arc triggered."""

    @property
    def duration(self) -> int:
        return self.completion - self.phase_two_start


def phase_two_timing(result: SwapResult) -> PhaseTwoTiming:
    """Measure Phase Two from a completed all-conforming run."""
    starts = [e.time for e in result.trace.events(tr.PHASE_STARTED)]
    completion = result.completion_time
    if not starts or completion is None:
        raise ValueError("run did not reach (or finish) Phase Two")
    return PhaseTwoTiming(phase_two_start=min(starts), completion=completion)


def compare_broadcast(
    digraph: Digraph, config: SwapConfig | None = None
) -> tuple[PhaseTwoTiming, PhaseTwoTiming]:
    """Run the same swap with and without the broadcast optimisation.

    Returns ``(without, with)`` Phase-Two timings; both runs must end
    all-Deal or a :class:`ValueError` propagates.
    """
    base = config or SwapConfig()
    without = run_swap(digraph, config=replace(base, use_broadcast=False))
    with_bc = run_swap(digraph, config=replace(base, use_broadcast=True))
    if not (without.all_deal() and with_bc.all_deal()):
        raise ValueError("comparison requires both runs to complete")
    return phase_two_timing(without), phase_two_timing(with_bc)

