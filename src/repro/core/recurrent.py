"""Recurrent swaps (§5).

"The swap protocol can be made recurrent by having the leaders distribute
the next round's hashlocks in Phase Two of the previous round."

:class:`RecurrentSwapCoordinator` runs ``rounds`` consecutive swaps over
the same digraph and leader set.  Each leader pre-generates one secret per
round; during round ``k`` it publishes (on the shared broadcast chain,
piggybacked on its Phase-Two activity) the hashlock it will use in round
``k+1``.  Round ``k+1`` then starts without a fresh market-clearing
interaction: parties already hold everything they need.

The coordinator reports per-round results plus the setup-message savings
relative to re-clearing every round — the measurable content of the
remark, reproduced by bench E18.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.protocol import SwapResult, SwapSimulation, scenario_for
from repro.core.spec import leader_secret
from repro.crypto.hashing import hash_secret
from repro.digraph.digraph import Digraph, Vertex
from repro.errors import SimulationError


@dataclass
class RecurrentRound:
    """One completed round of a recurrent swap."""

    index: int
    result: SwapResult
    next_hashlocks_published: int
    """How many round-(k+1) hashlocks leaders announced during round k."""


@dataclass
class RecurrentOutcome:
    """All rounds plus the §5 remark's accounting."""

    rounds: list[RecurrentRound] = field(default_factory=list)

    def all_deal(self) -> bool:
        return all(r.result.all_deal() for r in self.rounds)

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    def clearing_interactions_saved(self) -> int:
        """Rounds that needed no fresh clearing because hashlocks were
        pre-distributed: every round after the first."""
        return max(0, len(self.rounds) - 1)


class RecurrentSwapCoordinator:
    """Runs ``rounds`` swaps, chaining hashlock distribution across rounds.

    ``fields`` are the :class:`~repro.api.scenario.Scenario` fields every
    round shares (``leaders``, ``seed``, ``timing``, ...); round ``k``
    runs with seed ``seed·1000 + k``.
    """

    def __init__(self, digraph: Digraph, rounds: int, **fields: Any) -> None:
        if rounds < 1:
            raise SimulationError("need at least one round")
        self.digraph = digraph
        self.rounds = rounds
        self.scenario = scenario_for("herlihy", digraph, **fields)

    def _round_scenario(self, round_index: int) -> Any:
        # Distinct seeds per round give distinct secrets/keys; time restarts
        # per round (each round is its own simulation epoch).
        return self.scenario.with_(seed=self.scenario.seed * 1000 + round_index)

    def run(self) -> RecurrentOutcome:
        """Execute every round; stop early if a round fails to complete.

        A round "fails" when not every arc triggered (some party crashed or
        deviated); recurrence assumes willing repeat participants, so the
        coordinator does not continue past a failed round.
        """
        outcome = RecurrentOutcome()
        for index in range(self.rounds):
            simulation = SwapSimulation(self._round_scenario(index))
            # Leaders distribute the *next* round's hashlocks during this
            # round's Phase Two: piggyback them on the broadcast chain the
            # moment each leader reveals its current secret.
            next_locks = self._next_round_hashlocks(index + 1, simulation)
            published = 0
            if index + 1 < self.rounds:
                broadcast = simulation.network.broadcast_chain
                for leader, hashlock in next_locks.items():
                    broadcast.publish_data(
                        kind="next_round_hashlock",
                        author=leader,
                        payload={
                            "round": index + 1,
                            "leader": leader,
                            "hashlock": hashlock,
                        },
                        now=0,
                    )
                    published += 1
            result = simulation.run()
            outcome.rounds.append(
                RecurrentRound(
                    index=index,
                    result=result,
                    next_hashlocks_published=published,
                )
            )
            if not result.all_deal():
                break
        return outcome

    def _next_round_hashlocks(
        self, next_index: int, simulation: SwapSimulation
    ) -> dict[Vertex, bytes]:
        """The hashlocks round ``next_index`` will use (pre-derivable)."""
        seed = self._round_scenario(next_index).seed
        return {
            leader: hash_secret(leader_secret(seed, leader))
            for leader in simulation.leaders
        }
