"""The milestone record: a slotted tuple that behaves as the frozen
dataclass it replaced.

``tests/milestone_reference.py`` keeps that dataclass.  A
:class:`~repro.sim.milestones.Milestone` must refuse assignment with
:class:`dataclasses.FrozenInstanceError`, equal exactly the milestones
with the same field values (and nothing else), hash as the dataclass
did, survive pickling, and encode to the same ``to_dict``/wire form.
The synthesized milestones, each built once, must be the simulator's
milestones and the ones the twice-built numbering gave.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
from collections import Counter

import pytest

from milestone_reference import DataclassMilestone, twice_built_milestones
from repro.analysis.engine import _synthesize
from repro.analysis.protocol import COVERAGE_FULL, analyze_scenario
from repro.api.engine import get_engine
from repro.api.scenario import Scenario
from repro.digraph.generators import complete_digraph, cycle_digraph, triangle
from repro.lab.registry import get_family, list_families
from repro.serve.events import milestone_from_wire, milestone_to_wire
from repro.sim.milestones import (
    CONTRACT_ESCROWED,
    PHASE1_START,
    SECRET_RELEASED,
    SETTLED,
    Milestone,
)

FIELDS = [
    {"index": 0, "time": 1000, "kind": PHASE1_START},
    {"index": 3, "time": 1250, "kind": CONTRACT_ESCROWED, "party": "Alice",
     "arc": ("Alice", "Bob")},
    {"index": 7, "time": 2400, "kind": SECRET_RELEASED, "party": "Bob",
     "arc": ("Alice", "Bob")},
    {"index": 8, "time": 2400, "kind": SECRET_RELEASED, "party": "Zoë"},
    {"index": 12, "time": 5000, "kind": SETTLED},
]


@pytest.mark.parametrize("fields", FIELDS)
def test_assignment_is_refused(fields):
    milestone = Milestone(**fields)
    for name in ("index", "time", "kind", "party", "arc", "note"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(milestone, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(milestone, name)
    assert milestone == Milestone(**fields)


@pytest.mark.parametrize("fields", FIELDS)
def test_equality_and_hash_follow_the_field_values(fields):
    milestone = Milestone(**fields)
    old = DataclassMilestone(**fields)
    assert milestone == Milestone(**fields) and not milestone != Milestone(**fields)
    assert hash(milestone) == hash(Milestone(**fields)) == hash(old)
    assert (milestone.index, milestone.time, milestone.kind, milestone.party,
            milestone.arc) == (old.index, old.time, old.kind, old.party, old.arc)
    for name, value in (("index", 99), ("time", -1), ("kind", SETTLED + "!"),
                        ("party", "Carol"), ("arc", ("Bob", "Carol"))):
        other = Milestone(**{**fields, name: value})
        assert milestone != other and not milestone == other
    # Like the dataclass, a milestone equals no plain tuple and no other type.
    plain = tuple(dataclasses.astuple(old))
    assert milestone != plain and plain != milestone and not milestone == plain
    assert milestone != old
    assert {milestone: 1}[Milestone(**fields)] == 1
    assert milestone.__eq__(plain) is False  # not NotImplemented


def test_tuple_behaviour_beyond_the_dataclass():
    """What the tuple record adds over the frozen dataclass (the module
    notes list it): field-order comparison, indexing, unpacking, len and
    ``_replace``."""
    early = Milestone(**FIELDS[1])
    late = Milestone(**FIELDS[2])
    assert early < late and sorted([late, early]) == [early, late]
    assert len(early) == 5 and early[1] == early.time
    index, time, kind, party, arc = early
    assert (index, time, kind, party, arc) == (3, 1250, CONTRACT_ESCROWED, "Alice",
                                               ("Alice", "Bob"))
    moved = early._replace(time=1300)
    assert type(moved) is Milestone and moved.time == 1300 and early.time == 1250
    with pytest.raises(TypeError):
        DataclassMilestone(**FIELDS[1]) < DataclassMilestone(**FIELDS[2])


@pytest.mark.parametrize("fields", FIELDS)
def test_pickle_and_copy_round_trip(fields):
    milestone = Milestone(**fields)
    for clone in (
        pickle.loads(pickle.dumps(milestone, protocol=pickle.HIGHEST_PROTOCOL)),
        pickle.loads(pickle.dumps(milestone, protocol=0)),
        copy.copy(milestone),
        copy.deepcopy(milestone),
    ):
        assert type(clone) is Milestone and clone == milestone
        assert hash(clone) == hash(milestone)


@pytest.mark.parametrize("fields", FIELDS)
def test_dict_and_wire_forms_are_unchanged(fields):
    milestone = Milestone(**fields)
    expected = DataclassMilestone(**fields).to_dict()
    assert milestone.to_dict() == expected
    assert list(milestone.to_dict()) == list(expected)
    assert json.dumps(milestone.to_dict()) == json.dumps(expected)
    assert milestone_to_wire(milestone) == expected
    decoded = milestone_from_wire(json.loads(json.dumps(milestone_to_wire(milestone))))
    assert type(decoded) is Milestone and decoded == milestone


def _covered_scenarios() -> list[Scenario]:
    scenarios = [
        Scenario(triangle(), seed=3, name="triangle"),
        Scenario(cycle_digraph(5), seed=4, start_time=17, name="cycle-5"),
        Scenario(
            complete_digraph(4), seed=5, chain_delays={"P00->P01": 700},
            name="clique-4-delayed",
        ),
    ]
    for name in list_families():
        topology = get_family(name).generate({}, seed=1)
        scenarios.append(Scenario(topology, seed=1, name=name))
    return [s for s in scenarios if analyze_scenario(s).coverage == COVERAGE_FULL]


def _content(milestone: Milestone) -> tuple:
    return milestone.time, milestone.kind, milestone.party, milestone.arc


@pytest.mark.parametrize("scenario", _covered_scenarios(), ids=lambda s: s.name)
def test_synthesized_milestones_are_the_simulators_per_tick(scenario):
    """The same milestones at the same ticks as the simulator, numbered
    densely in time order.  Within one tick the synthesis orders
    escrows before releases, each by arc, where the tracker follows
    the scheduler's firing order, so the two sequences may order a
    tick's milestones differently."""
    prediction = analyze_scenario(scenario).prediction
    synthesized = _synthesize(scenario, prediction).milestones
    simulated = get_engine("herlihy").run(scenario).milestones
    assert Counter(map(_content, synthesized)) == Counter(map(_content, simulated))
    assert [m.index for m in synthesized] == list(range(len(synthesized)))
    times = [m.time for m in synthesized]
    assert times == sorted(times)
    # ... and the numbering that built every record twice gave the same.
    rows = [
        (m.time, 0 if m.kind == CONTRACT_ESCROWED else 1, m.arc, m.kind, m.party)
        for m in synthesized[1:-2]
    ]
    reference = twice_built_milestones(
        synthesized[0].time, rows, synthesized[-2].time, synthesized[-1].time
    )
    assert [m.to_dict() for m in reference] == [m.to_dict() for m in synthesized]
