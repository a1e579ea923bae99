"""E5 — Figure 7: hashkey paths on the two-leader digraph.

Figure 7 lists, for every arc of the two-leader complete triangle, the
hashkeys that can unlock each hashlock — one per simple path from the
arc's counterparty to the lock's leader.  This bench enumerates exactly
those paths, prints them in the figure's notation (``s_A,BCA`` = secret
s_A, path B→C→A), and cross-checks the counts and timeouts.
"""

from _tables import delta_units, emit_table

from repro.core.spec import SwapSpec
from repro.crypto.hashing import hash_secret
from repro.digraph.generators import two_leader_triangle
from repro.digraph.paths import all_simple_paths, diameter

DELTA = 1000


def enumerate_hashkeys():
    digraph = two_leader_triangle()
    leaders = ("A", "B")
    spec = SwapSpec(
        digraph=digraph,
        leaders=leaders,
        hashlocks=tuple(hash_secret(l.encode()) for l in leaders),
        start_time=0,
        delta=DELTA,
        diam=diameter(digraph),
    )
    rows = []
    for arc in digraph.arcs:
        _, counterparty = arc
        for lock_index, leader in enumerate(leaders):
            for path in all_simple_paths(digraph, counterparty, leader):
                if len(path) > 1 and path[0] == path[-1]:
                    # The paper's path definition admits cycles, and the
                    # contract accepts them (Lemma 4.8's "v appears in p"
                    # case), but Figure 7 lists only the strictly simple
                    # paths — a leader unlocks its own arcs with the
                    # degenerate path, never a detour through the cycle.
                    continue
                notation = f"s_{leader}," + "".join(path)
                rows.append(
                    [
                        f"{arc[0]}->{arc[1]}",
                        notation,
                        len(path) - 1,
                        delta_units(spec.hashkey_deadline(len(path) - 1), DELTA),
                    ]
                )
    return rows


def test_fig7_hashkey_paths(benchmark):
    rows = benchmark.pedantic(enumerate_hashkeys, rounds=5, iterations=1)
    emit_table(
        "E05",
        "Figure 7: hashkeys per arc of the two-leader digraph "
        "(notation s_X,P = secret of X, path P)",
        ["arc", "hashkey", "|p|", "times out at"],
        rows,
        notes=(
            "Counterparty A or B holds 3 keys (its own degenerate path "
            "plus two relays of the other leader's secret); counterparty C "
            "holds 4 (two relay paths per leader) — exactly the labels of "
            "Figure 7.  Longer paths enjoy later timeouts, the mechanism "
            "that replaces Fig. 6's impossible static assignment."
        ),
    )
    # Figure 7's per-arc counts: keys are per *counterparty*, so arcs
    # entering A or B list 3 hashkeys and arcs entering C list 4.
    per_arc = {}
    for arc_label, *_ in rows:
        per_arc[arc_label] = per_arc.get(arc_label, 0) + 1
    assert per_arc == {
        "A->B": 3, "C->B": 3,          # counterparty B
        "B->A": 3, "C->A": 3,          # counterparty A
        "A->C": 4, "B->C": 4,          # counterparty C
    }, per_arc
    # Degenerate leader paths have |p| = 0 and the earliest timeout.
    degenerate = [r for r in rows if r[2] == 0]
    assert len(degenerate) == 4  # arcs entering A: 2, entering B: 2
    assert len(rows) == 20
