"""Test-only reference for the milestone record and its synthesis.

:class:`DataclassMilestone` is the frozen dataclass
:class:`repro.sim.milestones.Milestone` was before it became a slotted
tuple: same fields, defaults and ``to_dict``.
:func:`twice_built_milestones` numbers a synthesized run's milestone rows
the way ``repro.analysis.engine`` did with it: every escrow and release
built once with ``index=0``, sorted, then built again renumbered.
``tests/test_milestone_record.py`` holds the record to the dataclass's
values, and bench E39 times the synthesis against this numbering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sim.milestones import PHASE1_START, PHASE2_COMPLETE, SECRET_RELEASED, SETTLED

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
    start: int, rows: list[tuple], completion: int, settled: int
) -> tuple[DataclassMilestone, ...]:
    """``repro.analysis.engine._number_milestones``'s sequence, as the
    synthesis built it before: escrow records built in the arc loop and
    sorted by ``(time, arc)``, releases built from their sorted
    ``(time, arc, party)`` triples, a stable sort by time, then every
    record built again with its index."""
    escrows = [
        DataclassMilestone(index=0, time=when, kind=kind, party=party, arc=arc)
        for when, rank, arc, kind, party in rows
        if rank == 0
    ]
    releases = sorted((when, arc, party) for when, rank, arc, _, party in rows if rank == 1)
    milestones = [DataclassMilestone(index=0, time=start, kind=PHASE1_START)]
    timeline = sorted(escrows, key=lambda m: (m.time, m.arc or ())) + [
        DataclassMilestone(index=0, time=when, kind=SECRET_RELEASED, party=party, arc=arc)
        for when, arc, party in releases
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
