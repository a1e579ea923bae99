"""Cross-shard coordination: the paper's sharding motivation, simulated.

§1: "Sharding splits one blockchain into many ... When [activities on
different shards] cannot [proceed independently], an atomic swap protocol
can coordinate needed cross-chain updates."

Here four shards of a sharded ledger each hold one "ownership record" that
must be rotated atomically among services (a coordinated schema hand-off):
service S0's record moves to S1, S1's to S2, and so on around the ring.
Either every shard applies its update or none does — even when one shard's
operator goes down mid-rotation.  The same run is repeated with the
broadcast optimisation to show the constant-time Phase Two a busy system
would actually deploy, and a recurrent schedule models nightly rotations.

Run:  python examples/sharded_commit.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import CrashPoint, FaultPlan, run_swap
from repro.core.broadcast import compare_broadcast
from repro.core.recurrent import RecurrentSwapCoordinator
from repro.digraph.generators import cycle_digraph


def main() -> None:
    shards = cycle_digraph(4, prefix="Shard")
    print("Cross-shard rotation ring:")
    for head, tail in shards.arcs:
        print(f"  {head} hands its record to {tail}")

    print("\nAtomic rotation, all shards up:")
    result = run_swap(shards)
    assert result.all_deal()
    print(f"  all {len(result.triggered)} updates applied by "
          f"t={result.completion_time} (bound {result.spec.phase_two_bound()})")

    print("\nAtomic rotation with Shard02's operator down:")
    result = run_swap(
        shards,
        faults=FaultPlan().crash("Shard02", at_point=CrashPoint.AT_START),
    )
    print(f"  updates applied: {len(result.triggered)}, "
          f"escrows refunded: {len(result.refunded)}")
    for shard, outcome in sorted(result.outcomes.items()):
        print(f"  {shard}: {outcome.value}")
    assert result.conforming_acceptable()
    assert len(result.triggered) == 0
    print("  the rotation aborted cleanly: no shard applied a partial update.")

    print("\nPhase-Two latency with the shared broadcast chain (§4.5):")
    without, with_bc = compare_broadcast(shards)
    print(f"  relay-only Phase Two : {without.duration} ticks")
    print(f"  with broadcast chain : {with_bc.duration} ticks")

    print("\nNightly rotations via recurrent swaps (§5):")
    outcome = RecurrentSwapCoordinator(shards, rounds=3, use_broadcast=True).run()
    for round_ in outcome.rounds:
        print(f"  night {round_.index}: "
              f"{'rotated' if round_.result.all_deal() else 'FAILED'}, "
              f"next-night hashlocks pre-published: "
              f"{round_.next_hashlocks_published}")
    assert outcome.all_deal()
    print(f"  {outcome.clearing_interactions_saved()} clearing interactions "
          "saved by hashlock pre-distribution.")


if __name__ == "__main__":
    main()
