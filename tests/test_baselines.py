"""Tests for the three baseline protocols: honest runs and their attacks.

The baselines exist to make the paper's design trade-offs measurable: each
works when everyone is honest, and each breaks uniformity under exactly
the failure the paper's protocol was built to survive.
"""

import pytest

from repro.analysis.outcomes import Outcome
from repro.api import Scenario, get_engine
from repro.core.protocol import run_swap
from repro.core.strategies import LastMomentUnlockParty
from repro.digraph.generators import cycle_digraph, triangle
from repro.errors import NotStronglyConnectedError, SimulationError


def _run(engine, topology, **params):
    """The engine's native result object for one scenario."""
    return get_engine(engine).run(Scenario(topology=topology, params=params)).raw


class TestNaiveTimelockBaseline:
    def test_honest_run_completes(self):
        result = _run("naive-timelock", triangle())
        assert result.all_deal()

    def test_last_moment_attack_breaks_uniformity(self):
        # §1: equal timeouts let Carol reveal at the last moment, stranding
        # Bob (he learns the secret after the shared deadline).
        result = _run("naive-timelock", triangle(), attacker="Carol")
        assert result.outcomes["Bob"] is Outcome.UNDERWATER
        assert not result.conforming_acceptable()

    def test_same_attack_defused_by_hashkeys(self):
        # The identical behaviour against the real protocol: harmless.
        result = run_swap(triangle(), strategies={"Carol": LastMomentUnlockParty})
        assert result.all_deal()

    def test_attacker_coalition_profits(self):
        from repro.analysis.game import SwapGame

        result = _run("naive-timelock", triangle(), attacker="Carol")
        game = SwapGame(triangle())
        coalition = {"Alice", "Carol"}
        assert game.deviation_gain(coalition, result.triggered) > 0

    def test_longer_cycles_also_vulnerable(self):
        # Secrets relay P00 -> P03 -> P02 -> P01; an attacker mid-relay
        # (P02) strands its upstream neighbour (P01), who learns the secret
        # only after the shared deadline.  (P01 itself is the last relay
        # hop — nobody is downstream of it, so P01 attacking is harmless.)
        d = cycle_digraph(4)
        result = _run("naive-timelock", d, attacker="P02")
        assert result.outcomes["P01"] is Outcome.UNDERWATER
        assert not result.conforming_acceptable()
        harmless = _run("naive-timelock", d, attacker="P01")
        assert harmless.all_deal()


class TestSequentialTrustBaseline:
    def test_honest_run_completes(self):
        result = _run("sequential-trust", triangle())
        assert result.all_deal()

    def test_no_contracts_at_all(self):
        result = _run("sequential-trust", triangle())
        assert result.contract_storage_bytes == 0

    def test_defector_strands_first_mover(self):
        result = _run("sequential-trust", triangle(), first_mover="Alice", defectors=["Carol"])
        assert result.outcomes["Alice"] is Outcome.UNDERWATER
        assert result.outcomes["Carol"] is Outcome.FREERIDE
        assert not result.conforming_acceptable()

    def test_immediate_defector_harms_nobody(self):
        # If the defector would have been the first mover, nothing happens.
        result = _run("sequential-trust", triangle(), first_mover="Alice", defectors=["Alice"])
        assert all(o is Outcome.NODEAL for o in result.outcomes.values())

    def test_longer_cycle_single_victim(self):
        d = cycle_digraph(5)
        result = _run("sequential-trust", d, first_mover="P00", defectors=["P03"])
        underwater = [v for v, o in result.outcomes.items() if o is Outcome.UNDERWATER]
        assert underwater == ["P00"]

    def test_unknown_defector_rejected(self):
        with pytest.raises(SimulationError):
            _run("sequential-trust", triangle(), defectors=["Zoe"])

    def test_not_sc_rejected(self):
        from repro.digraph.generators import chain_digraph

        with pytest.raises(NotStronglyConnectedError):
            _run("sequential-trust", chain_digraph(3))


class TestTwoPhaseCommitBaseline:
    def test_honest_run_completes(self):
        result = _run("2pc", triangle())
        assert result.all_deal()

    def test_constant_round_latency(self):
        # 2PC latency is independent of the digraph diameter.
        small = _run("2pc", triangle())
        large = _run("2pc", cycle_digraph(8))
        assert small.completion_time == large.completion_time

    def test_faster_than_protocol_on_long_cycles(self):
        d = cycle_digraph(8)
        tpc = _run("2pc", d)
        swap = run_swap(d)
        assert tpc.completion_time < swap.completion_time

    def test_byzantine_partial_commit_breaks_uniformity(self):
        d = triangle()
        result = _run("2pc", d, byzantine_commit_only=[["Alice", "Bob"]])
        assert result.outcomes["Alice"] is Outcome.UNDERWATER
        assert not result.conforming_acceptable()

    def test_coordinator_crash_refunds_everyone(self):
        result = _run("2pc", triangle(), coordinator_crashes=True)
        assert all(o is Outcome.NODEAL for o in result.outcomes.values())
        assert result.refunded == frozenset(triangle().arcs)

    def test_cheaper_storage_than_protocol(self):
        tpc = _run("2pc", triangle())
        swap = run_swap(triangle())
        assert tpc.contract_storage_bytes < swap.contract_storage_bytes
