"""Transcript bytes counted per arc against the full record list.

``repro.analysis.engine._synthesize`` encodes a constant number of
records per arc and derives the ``|L|`` unlock records of each arc from
one skeleton.  Its ``published_bytes`` and ``stored_bytes`` must equal
both the full record list of :mod:`transcript_reference` (every record
built and encoded) and what the ``herlihy`` simulator's ledgers count,
on a bounded random sample of fully covered scenarios and on the edge
cases of the skeleton identity: escaped and non-ASCII party names,
two-digit lock indices, every signature scheme's width.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from transcript_reference import reference_records, reference_synthesize

from repro.analysis.engine import _synthesize
from repro.analysis.protocol import COVERAGE_FULL, analyze_scenario
from repro.api.engine import get_engine
from repro.api.scenario import Scenario
from repro.chain.ledger import canonical_encoded_total
from repro.crypto.signatures import scheme_names
from repro.digraph.digraph import Digraph
from repro.digraph.generators import (
    complete_digraph,
    cycle_digraph,
    random_strongly_connected,
    two_leader_triangle,
)

BLOCK_HEADER_BYTES = 80

SAMPLE = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Name characters the encoder escapes or widens, beside plain ones.
NAME_ALPHABET = "abcXYZ019_ é日\"\\\n\t"


def relabeled(digraph: Digraph, names: list[str]) -> Digraph:
    rename = dict(zip(digraph.vertices, names))
    return Digraph(
        [rename[v] for v in digraph.vertices],
        [(rename[u], rename[v]) for u, v in digraph.arcs],
    )


def assert_transcript_bytes(scenario: Scenario) -> None:
    analysis = analyze_scenario(scenario)
    assert analysis.coverage == COVERAGE_FULL, [d.message for d in analysis.diagnostics]
    prediction = analysis.prediction
    synthesized = _synthesize(scenario, prediction)
    records = reference_records(scenario, prediction)
    assert synthesized.published_bytes == canonical_encoded_total(records)
    assert synthesized.stored_bytes == (
        synthesized.published_bytes + BLOCK_HEADER_BYTES * len(records)
    )
    assert synthesized.to_dict() == reference_synthesize(scenario, prediction).to_dict()
    simulated = get_engine("herlihy").run(scenario)
    assert (synthesized.published_bytes, synthesized.stored_bytes) == (
        simulated.published_bytes,
        simulated.stored_bytes,
    )


@st.composite
def covered_scenarios(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    digraph = random_strongly_connected(
        n,
        draw(st.floats(min_value=0.0, max_value=0.5)),
        Random(draw(st.integers(min_value=0, max_value=10_000))),
    )
    names = draw(
        st.lists(
            st.text(NAME_ALPHABET, min_size=1, max_size=4),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    # Pure-python ECDSA makes larger simulations slow: triangles only.
    schemes = ["hmac-registry", "ecdsa-secp256k1"] if n == 3 else ["hmac-registry"]
    return Scenario(
        relabeled(digraph, names),
        seed=draw(st.integers(min_value=0, max_value=999)),
        scheme_name=draw(st.sampled_from(schemes)),
        timeout_slack=draw(st.integers(min_value=0, max_value=1)),
    )


@SAMPLE
@given(covered_scenarios())
def test_sampled_covered_scenarios(scenario):
    assert_transcript_bytes(scenario)


@pytest.mark.parametrize(
    "names",
    [["é", "b", "c"], ['q"x', "b", "c"], ["b\\", "c", "d"], ["c\n", "d", "e"]],
    ids=["non-ascii", "quote", "backslash", "newline"],
)
def test_escaped_names_on_a_cycle(names):
    assert_transcript_bytes(Scenario(relabeled(cycle_digraph(3), names)))


def test_escaped_names_on_every_hop():
    # Three leaders: every name rides in multi-hop unlock paths.
    names = ["é", 'q"x', "b\\", "c\n"]
    assert_transcript_bytes(Scenario(relabeled(complete_digraph(4), names)))


def test_two_digit_lock_indices():
    scenario = Scenario(complete_digraph(12))
    assert len(analyze_scenario(scenario).prediction.leaders) == 11
    assert_transcript_bytes(scenario)


@pytest.mark.parametrize("scheme", [s for s in scheme_names() if s != "lamport"])
def test_every_multi_use_scheme(scheme):
    assert_transcript_bytes(Scenario(two_leader_triangle(), scheme_name=scheme))


def test_lamport_on_a_single_leader_cycle():
    assert_transcript_bytes(Scenario(cycle_digraph(4), scheme_name="lamport"))
