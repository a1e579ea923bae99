"""E15 — §4.6: the single-leader variant vs the general protocol.

"Single-leader swap digraphs do not require hashkeys and digital
signatures, only timeouts."  The bench runs both protocols on the same
single-leader digraphs and compares signature operations, contract
storage, published bytes, and completion time.
"""

from _tables import delta_units, emit_table

from repro.core.protocol import run_swap
from repro.core.timelocks import run_single_leader_swap
from repro.digraph.generators import cycle_digraph, petal_digraph, triangle

DELTA = 1000

WORKLOADS = [
    ("triangle", triangle()),
    ("cycle-5", cycle_digraph(5)),
    ("cycle-8", cycle_digraph(8)),
    ("petals 3x3", petal_digraph(3, 3)),
]


def sweep():
    rows = []
    for label, digraph in WORKLOADS:
        general = run_swap(digraph, seed=5)
        scheme = general.spec.schemes[general.scenario.scheme_name]
        general_sigs = scheme.sign_count + scheme.verify_count
        single = run_single_leader_swap(digraph, seed=5)
        assert general.all_deal() and single.all_deal()
        rows.append(
            [
                label,
                f"{general_sigs} / 0",
                f"{general.contract_storage_bytes} / {single.contract_storage_bytes}",
                f"{general.published_bytes} / {single.published_bytes}",
                f"{delta_units(general.completion_time, DELTA)} / "
                f"{delta_units(single.completion_time, DELTA)}",
            ]
        )
    return rows


def test_single_leader_eliminates_signatures(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit_table(
        "E15",
        "§4.6: general hashkey protocol vs single-leader timeouts "
        "(each cell: general / single-leader)",
        ["workload", "sig ops", "contract bytes", "published bytes", "completion"],
        rows,
        notes=(
            "The single-leader variant needs zero signature operations and "
            "O(1)-size contracts (no digraph copy, no hashkey vectors), at "
            "identical completion times — §4.6's promised savings."
        ),
    )
    for row in rows:
        general_sigs, single_sigs = row[1].split(" / ")
        assert int(general_sigs) > 0 and single_sigs == "0"
        general_bytes, single_bytes = (int(x) for x in row[2].split(" / "))
        assert single_bytes < general_bytes
