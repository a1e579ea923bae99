"""`RunReport`: the one result shape every protocol engine returns.

Unifies :class:`repro.core.protocol.SwapResult`,
:class:`repro.core.multiswap.MultiSwapResult` and the baselines' ad-hoc
results behind a single dataclass: per-party Fig.-3 outcomes, the
triggered/refunded/stuck arc sets, model time (completion vs the §4
bound), wall time, and the message/byte metrics the complexity theorems
count.  Reports serialize losslessly through :meth:`to_dict` /
:meth:`from_dict` — that round-trip is how sweep workers return results
across process boundaries.

The live simulation objects (trace, chain network, parties) stay
reachable through :attr:`RunReport.raw` for in-process callers that want
to dig — ``raw`` is deliberately excluded from serialization and
equality, since it cannot cross a process boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.outcomes import ACCEPTABLE_OUTCOMES, Outcome
from repro.api.scenario import Scenario
from repro.core.multiswap import MultiSwapResult
from repro.core.protocol import SwapResult
from repro.digraph.digraph import Arc, Vertex


def _sorted_arcs(arcs) -> tuple[Arc, ...]:
    return tuple(sorted(arcs))


@dataclass
class RunReport:
    """Everything observable after one engine ran one scenario."""

    engine: str
    scenario: Scenario
    outcomes: dict[Vertex, Outcome]
    conforming: tuple[Vertex, ...]
    leaders: tuple[Vertex, ...]
    triggered: tuple[Arc, ...]
    refunded: tuple[Arc, ...]
    stuck_in_escrow: tuple[Arc, ...]
    completion_time: int | None
    phase_two_bound: int | None
    events_fired: int
    stored_bytes: int
    contract_storage_bytes: int
    published_bytes: int
    unlock_calls: int
    wall_seconds: float
    extra: dict[str, Any] = field(default_factory=dict)
    raw: Any = field(default=None, compare=False, repr=False)
    milestones: Any = field(default=None, compare=False, repr=False)
    """The execution session's milestone sequence (tuple of
    :class:`repro.sim.milestones.Milestone`), populated by
    ``Engine.run``/``Execution.run_to_completion``.  Like :attr:`raw`,
    deliberately excluded from serialization and equality: reports stay
    byte-identical to pre-session releases, while in-process callers
    (and the sweep layer, which stores the *counts* beside the report)
    can still inspect the lifecycle."""

    # -- headline predicates -------------------------------------------------

    def all_deal(self) -> bool:
        """Did every party end with Deal (the all-conforming guarantee)?"""
        return all(o is Outcome.DEAL for o in self.outcomes.values())

    def conforming_acceptable(self) -> bool:
        """Theorem 4.9: no conforming party may end Underwater."""
        return all(
            self.outcomes[v] in ACCEPTABLE_OUTCOMES for v in self.conforming
        )

    def underwater_parties(self) -> set[Vertex]:
        return {v for v, o in self.outcomes.items() if o is Outcome.UNDERWATER}

    def milestone_counts(self) -> dict[str, int] | None:
        """Milestone occurrences by kind, or ``None`` when the report
        was deserialized (milestones do not cross process boundaries —
        the sweep layer persists the counts beside the report)."""
        if self.milestones is None:
            return None
        counts: dict[str, int] = {}
        for milestone in self.milestones:
            counts[milestone.kind] = counts.get(milestone.kind, 0) + 1
        return counts

    def within_time_bound(self) -> bool:
        return (
            self.completion_time is not None
            and self.phase_two_bound is not None
            and self.completion_time <= self.phase_two_bound
        )

    def summary(self) -> str:
        lines = [
            f"engine: {self.engine}  scenario: {self.scenario.label()}",
            f"triggered: {len(self.triggered)} refunded: {len(self.refunded)} "
            f"stuck: {len(self.stuck_in_escrow)}",
            f"completion: {self.completion_time} (bound {self.phase_two_bound}) "
            f"wall: {self.wall_seconds * 1000:.1f}ms",
            "outcomes: "
            + ", ".join(f"{v}={o.value}" for v, o in sorted(self.outcomes.items())),
        ]
        return "\n".join(lines)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_result(
        cls,
        engine: str,
        scenario: Scenario,
        result: SwapResult | MultiSwapResult,
        wall_seconds: float,
    ) -> "RunReport":
        """Adapt a legacy result object (hashkey, single-leader, baseline,
        or multigraph) to the unified shape."""
        extra: dict[str, Any] = {}
        if isinstance(result, MultiSwapResult):
            extra["triggered_multiarcs"] = sorted(
                list(a) for a in result.triggered_multiarcs
            )
            extra["refunded_multiarcs"] = sorted(
                list(a) for a in result.refunded_multiarcs
            )
            base = result.base
        else:
            base = result
        return cls(
            engine=engine,
            scenario=scenario,
            outcomes=dict(base.outcomes),
            conforming=tuple(sorted(base.conforming)),
            leaders=tuple(base.spec.leaders),
            triggered=_sorted_arcs(base.triggered),
            refunded=_sorted_arcs(base.refunded),
            stuck_in_escrow=_sorted_arcs(base.stuck_in_escrow),
            completion_time=base.completion_time,
            phase_two_bound=base.spec.phase_two_bound(),
            events_fired=base.events_fired,
            stored_bytes=base.stored_bytes,
            contract_storage_bytes=base.contract_storage_bytes,
            published_bytes=base.published_bytes,
            unlock_calls=base.unlock_calls,
            wall_seconds=wall_seconds,
            extra=extra,
            raw=result,
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-compatible representation (drops :attr:`raw`)."""
        return {
            "engine": self.engine,
            "scenario": self.scenario.to_dict(),
            # Sorted by party, like __str__: insertion order depends on
            # where the report came from (a family's construction order
            # vs a sort_keys-decoded entry), and to_dict must not.
            "outcomes": {v: o.value for v, o in sorted(self.outcomes.items())},
            "conforming": list(self.conforming),
            "leaders": list(self.leaders),
            "triggered": [list(a) for a in self.triggered],
            "refunded": [list(a) for a in self.refunded],
            "stuck_in_escrow": [list(a) for a in self.stuck_in_escrow],
            "completion_time": self.completion_time,
            "phase_two_bound": self.phase_two_bound,
            "events_fired": self.events_fired,
            "stored_bytes": self.stored_bytes,
            "contract_storage_bytes": self.contract_storage_bytes,
            "published_bytes": self.published_bytes,
            "unlock_calls": self.unlock_calls,
            "wall_seconds": self.wall_seconds,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        return cls(
            engine=data["engine"],
            scenario=Scenario.from_dict(data["scenario"]),
            outcomes={v: Outcome(o) for v, o in data["outcomes"].items()},
            conforming=tuple(data["conforming"]),
            leaders=tuple(data["leaders"]),
            triggered=_sorted_arcs(tuple(a) for a in data["triggered"]),
            refunded=_sorted_arcs(tuple(a) for a in data["refunded"]),
            stuck_in_escrow=_sorted_arcs(tuple(a) for a in data["stuck_in_escrow"]),
            completion_time=data["completion_time"],
            phase_two_bound=data["phase_two_bound"],
            events_fired=data["events_fired"],
            stored_bytes=data["stored_bytes"],
            contract_storage_bytes=data["contract_storage_bytes"],
            published_bytes=data["published_bytes"],
            unlock_calls=data["unlock_calls"],
            wall_seconds=data["wall_seconds"],
            extra=data.get("extra", {}),
        )
