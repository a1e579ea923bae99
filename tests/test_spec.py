"""Unit tests for SwapSpec: validation, deadlines, path checks."""

import pytest

from repro.core.spec import SwapSpec
from repro.crypto.hashing import hash_secret
from repro.crypto.keys import KeyDirectory
from repro.digraph.generators import (
    chain_digraph,
    complete_digraph,
    cycle_digraph,
    triangle,
    two_leader_triangle,
)
from repro.digraph.paths import diameter
from repro.errors import (
    ClearingError,
    NotFeedbackVertexSetError,
    NotStronglyConnectedError,
)

DELTA = 1000


def make_spec(digraph, leaders, **overrides):
    hashlocks = tuple(hash_secret(l.encode()) for l in leaders)
    kwargs = dict(
        digraph=digraph,
        leaders=tuple(leaders),
        hashlocks=hashlocks,
        start_time=DELTA,
        delta=DELTA,
        diam=diameter(digraph),
        directory=KeyDirectory(),
        schemes={},
    )
    kwargs.update(overrides)
    return SwapSpec(**kwargs)


class TestValidation:
    def test_valid_triangle(self):
        spec = make_spec(triangle(), ["Alice"])
        assert spec.is_leader("Alice")
        assert spec.is_follower("Bob")

    def test_not_strongly_connected_rejected(self):
        with pytest.raises(NotStronglyConnectedError):
            make_spec(chain_digraph(3), ["P00"])

    def test_non_fvs_leaders_rejected(self):
        with pytest.raises(NotFeedbackVertexSetError):
            make_spec(two_leader_triangle(), ["A"])

    def test_no_leaders_rejected(self):
        with pytest.raises(ClearingError):
            make_spec(triangle(), [])

    def test_duplicate_leaders_rejected(self):
        with pytest.raises(ClearingError):
            make_spec(triangle(), ["Alice", "Alice"])

    def test_unknown_leader_rejected(self):
        with pytest.raises(ClearingError):
            make_spec(triangle(), ["Zoe"])

    def test_hashlock_count_mismatch(self):
        with pytest.raises(ClearingError):
            make_spec(two_leader_triangle(), ["A", "B"], hashlocks=(b"x" * 32,))

    def test_bad_delta(self):
        with pytest.raises(ClearingError):
            make_spec(triangle(), ["Alice"], delta=0)

    def test_bad_diam(self):
        with pytest.raises(ClearingError):
            make_spec(triangle(), ["Alice"], diam=0)

    def test_negative_slack(self):
        with pytest.raises(ClearingError):
            make_spec(triangle(), ["Alice"], timeout_slack=-1)

    def test_negative_start(self):
        with pytest.raises(ClearingError):
            make_spec(triangle(), ["Alice"], start_time=-1)


class TestRoles:
    def test_lock_indexing(self):
        spec = make_spec(two_leader_triangle(), ["A", "B"])
        assert spec.lock_count() == 2
        assert spec.lock_index_of("A") == 0
        assert spec.leader_of_lock(1) == "B"

    def test_non_leader_lock_index(self):
        spec = make_spec(two_leader_triangle(), ["A", "B"])
        with pytest.raises(ClearingError):
            spec.lock_index_of("C")

    def test_bad_lock_number(self):
        spec = make_spec(triangle(), ["Alice"])
        with pytest.raises(ClearingError):
            spec.leader_of_lock(5)


class TestDeadlines:
    def test_hashkey_deadline_formula(self):
        # §4.1: (diam + |p|) * Δ after start, plus slack.
        spec = make_spec(triangle(), ["Alice"])
        assert spec.diam == 2
        assert spec.hashkey_deadline(0) == DELTA + 2 * DELTA
        assert spec.hashkey_deadline(2) == DELTA + 4 * DELTA

    def test_slack_extends_deadline(self):
        spec = make_spec(triangle(), ["Alice"], timeout_slack=1)
        assert spec.hashkey_deadline(0) == DELTA + 3 * DELTA

    def test_negative_path_length_rejected(self):
        spec = make_spec(triangle(), ["Alice"])
        with pytest.raises(ClearingError):
            spec.hashkey_deadline(-1)

    def test_lock_final_timeout_uses_longest_path(self):
        spec = make_spec(triangle(), ["Alice"])
        # Arc (Alice, Bob): counterparty Bob; longest Bob->Alice path is 2.
        assert spec.lock_final_timeout(("Alice", "Bob"), 0) == DELTA + (2 + 2) * DELTA
        # Arc (Carol, Alice): counterparty Alice; degenerate path 0.
        assert spec.lock_final_timeout(("Carol", "Alice"), 0) == DELTA + 2 * DELTA

    def test_latest_timeout_max_over_locks(self):
        spec = make_spec(two_leader_triangle(), ["A", "B"])
        arc = ("A", "C")
        per_lock = [spec.lock_final_timeout(arc, i) for i in range(2)]
        assert spec.latest_timeout(arc) == max(per_lock)

    @pytest.mark.parametrize("broadcast", [False, True])
    def test_final_timeouts_are_each_locks_timeout(self, broadcast):
        """One D(counterparty, ·) row per party gives every lock's final
        timeout on every arc entering it."""
        digraph = complete_digraph(4)
        spec = make_spec(
            digraph, ["P03", "P00", "P02"], timeout_slack=1,
            broadcast_unlock_enabled=broadcast,
        )
        for arc in digraph.arcs:
            timeouts = spec.final_timeouts(arc[1])
            assert spec.final_timeouts(arc[1]) is timeouts  # memoised per spec
            for i, leader in enumerate(spec.leaders):
                longest = spec.longest_path_to(arc[1], leader)
                if broadcast and arc[1] != leader:
                    longest = max(longest, 1)
                expected = DELTA + (spec.diam + longest + 1) * DELTA
                assert timeouts[i] == spec.lock_final_timeout(arc, i) == expected
            assert spec.latest_timeout(arc) == max(timeouts)
        with pytest.raises(ClearingError):
            spec.lock_final_timeout(("P00", "P01"), 3)

    def test_phase_two_bound(self):
        spec = make_spec(triangle(), ["Alice"])
        assert spec.phase_two_bound() == DELTA + 4 * DELTA

    def test_longest_path_cached(self):
        spec = make_spec(triangle(), ["Alice"])
        first = spec.longest_path_to("Bob", "Alice")
        assert spec.longest_path_to("Bob", "Alice") == first == 2


class TestPathValidation:
    def test_degenerate_leader_path(self):
        spec = make_spec(triangle(), ["Alice"])
        assert spec.is_valid_hashkey_path(("Alice",), 0, "Alice")

    def test_full_relay_path(self):
        spec = make_spec(triangle(), ["Alice"])
        assert spec.is_valid_hashkey_path(("Bob", "Carol", "Alice"), 0, "Bob")

    def test_wrong_presenter(self):
        spec = make_spec(triangle(), ["Alice"])
        assert not spec.is_valid_hashkey_path(("Bob", "Carol", "Alice"), 0, "Carol")

    def test_wrong_leader_end(self):
        spec = make_spec(triangle(), ["Alice"])
        assert not spec.is_valid_hashkey_path(("Bob", "Carol"), 0, "Bob")

    def test_non_path_rejected(self):
        spec = make_spec(triangle(), ["Alice"])
        # (Carol, Bob) is not an arc of the triangle.
        assert not spec.is_valid_hashkey_path(("Carol", "Bob", "Alice"), 0, "Carol")

    def test_empty_rejected(self):
        spec = make_spec(triangle(), ["Alice"])
        assert not spec.is_valid_hashkey_path((), 0, "Alice")

    def test_broadcast_virtual_arc(self):
        plain = make_spec(triangle(), ["Alice"])
        assert not plain.is_valid_hashkey_path(("Bob", "Alice"), 0, "Bob")
        bc = make_spec(triangle(), ["Alice"], broadcast_unlock_enabled=True)
        assert bc.is_valid_hashkey_path(("Bob", "Alice"), 0, "Bob")


class TestStorage:
    def test_storage_grows_with_arcs(self):
        small = make_spec(triangle(), ["Alice"])
        big_graph = complete_digraph(5)
        big = make_spec(big_graph, sorted(
            __import__("repro.digraph.feedback", fromlist=["x"]).minimum_feedback_vertex_set(big_graph)
        ))
        assert big.stored_fields_size_bytes() > small.stored_fields_size_bytes()

    def test_diameter_helper(self):
        assert diameter(cycle_digraph(5)) == 4
