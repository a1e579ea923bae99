"""Test-only reference for the milestone record and its synthesis.

:class:`DataclassMilestone` is the frozen dataclass
:class:`repro.sim.milestones.Milestone` was before it became a slotted
tuple: same fields, defaults and ``to_dict``.
:func:`twice_built_milestones` numbers a synthesized run's milestone rows
the way ``repro.analysis.engine`` did with it: every escrow and release
built once with ``index=0``, sorted by time, then built again renumbered.
``tests/test_milestone_record.py`` holds the record to the dataclass's
values, and bench E39 times the synthesis against this numbering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sim.milestones import PHASE1_START, PHASE2_COMPLETE, SETTLED

Arc = tuple[str, str]


@dataclass(frozen=True)
class DataclassMilestone:
    index: int
    time: int
    kind: str
    party: str | None = None
    arc: Arc | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "time": self.time,
            "kind": self.kind,
            "party": self.party,
            "arc": list(self.arc) if self.arc is not None else None,
        }


def twice_built_milestones(
    start: int, replayed: list[Any], completion: int, settled: int
) -> tuple[DataclassMilestone, ...]:
    """``repro.analysis.engine._number_milestones``'s sequence from the
    replay's firing-order escrow and release milestones, numbered the
    way the synthesis did before each milestone was built once: every
    record built with ``index=0``, a stable sort by time (firing order
    is already time order, so it keeps them as they stand), then every
    record built again with its index."""
    milestones = [DataclassMilestone(index=0, time=start, kind=PHASE1_START)]
    timeline = [
        DataclassMilestone(index=0, time=m.time, kind=m.kind, party=m.party, arc=m.arc)
        for m in replayed
    ]
    timeline.sort(key=lambda m: m.time)
    timeline.append(DataclassMilestone(index=0, time=completion, kind=PHASE2_COMPLETE))
    timeline.append(DataclassMilestone(index=0, time=settled, kind=SETTLED))
    for event in timeline:
        milestones.append(
            DataclassMilestone(
                index=len(milestones), time=event.time, kind=event.kind,
                party=event.party, arc=event.arc,
            )
        )
    return tuple(milestones)
