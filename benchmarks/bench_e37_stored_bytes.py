"""E37 — one simulated run's byte accounting: counted as records are built.

Every ``RunReport`` carries ``stored_bytes`` and ``published_bytes``
(Theorem 4.10's measure).  The chain layer sizes each record as it
builds it, by the ledger's size identity, and the ledger keeps a
running total; no record is encoded to count bytes.  This bench takes
the simulated half of ``perfbench``'s ``fleet-drain`` workload — its
four families x ``phase-crash``/``colluding-crash`` x
``uniform``/``stragglers``, the same seeded draws for seed 3 over six
rounds (16 runs a round, 96 in all) — and:

* asserts, on every ledger of every run, that the record count and the
  running byte total equal a full-encoding oracle (every record body
  encoded, ``canonical_encoded_total``), that each record's size equals
  its own encoding, that every ledger seals into a chain that verifies,
  and that the closed form declines every run (all are simulated);
* times ms per simulated run three ways, back to back in each of
  :data:`ROUNDS` rounds (the order rotating round by round): ``shipped`` (the run as the library does it);
  ``encode_after`` (the run with the build-time sizing stubbed out —
  the blockchain's record-size functions and every contract's
  ``state_size``/``fixed_state_size``/``args_size`` return 0 —
  followed by a full-encode pass over every ledger: how the byte count
  was taken before records were sized as they were built); and
  ``unsized`` (the stubbed run alone, no byte count at all).

Each ratio is the median over rounds of the ratio within a round, so
the machine's drift between rounds cancels.  Two ratios carry frozen
bounds in ``benchmarks/floors.py``:
``encode_after / shipped >= FLOOR`` (sizing at build time beats
encoding after the run) and ``shipped / unsized <= SIZING_CEILING``
(what the build-time sizing itself costs a run stays small, so a
slower size identity shows here even while it still beats the encoder).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/bench_e37_stored_bytes.py -q -s
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext
from random import Random

from _tables import emit_bench_json, emit_table

from repro.analysis.engine import resolve_report
from repro.api import get_engine
from repro.api.sweep import derive_seed
from repro.chain import blockchain
from repro.chain.contracts import Contract
from repro.chain.ledger import canonical_encode, canonical_encoded_total
from repro.core.contract import SwapContract
from repro.lab.workloads import Workload, build_sweep

ROUNDS = 21
FLOOR = 1.0
SIZING_CEILING = 1.3
SEED = 3
DRAWS = 6
#: ``perfbench/workloads.py``'s ``SIM_FAMILIES`` and ``ANALYTIC_FAMILIES``,
#: and the fleet-drain grid's mixes and timings, copied.
SIM_FAMILIES = (
    ("clique", {"n": 4}),
    ("erdos-renyi", {"n": 6, "p": 0.25}),
    ("wheel", {"rim": 4}),
    ("power-law", {"n": 7, "exponent": 2.2, "extra": 4}),
)
ANALYTIC_FAMILIES = (
    ("clique", {"n": 3}),
    ("clique", {"n": 5}),
    ("wheel", {"rim": 4}),
    ("erdos-renyi", {"n": 7, "p": 0.3}),
)
MIXES = ("phase-crash", "colluding-crash")
TIMINGS = ("uniform", "stragglers")
PER_KIND = 16


def _grid(label, rng, families, mixes=("all-conforming",), timings=("uniform",), copies=1):
    """The draws of ``perfbench``'s grid helper: one start time, then one
    seed per family x mix x timing (``copies`` repeats the workloads)."""
    start_time = rng.randrange(1000)
    workloads = [
        Workload(
            family, grid, mixes=(mix,), timings=(timing,), seed=rng.randrange(1 << 30),
            name=f"{label}-{family}", scenario_kwargs={"start_time": start_time},
        )
        for family, grid in families
        for mix in mixes
        for timing in timings
    ]
    return list(build_sweep(workloads * copies, name=label).items())


def fleet_drain_simulated() -> list:
    """The simulated scenarios of fleet-drain's rounds ``0 .. DRAWS - 1``."""
    scenarios = []
    for index in range(DRAWS):
        rng = Random(derive_seed(SEED, "perfbench:fleet-drain", index))
        # The analytic half is drawn first; its draws fix the rng state.
        _grid(f"fana{index}", rng, ANALYTIC_FAMILIES, copies=PER_KIND // len(ANALYTIC_FAMILIES))
        simulated = _grid(f"fsim{index}", rng, SIM_FAMILIES, MIXES, TIMINGS)[:PER_KIND]
        scenarios.extend(scenario for _, scenario in simulated)
    return scenarios


def full_encode_pass(network) -> int:
    """Every record of every ledger encoded: the count read off the ledgers."""
    return sum(
        canonical_encoded_total([record.body() for record in chain.records()])
        for chain in network.chains()
    )


def check(scenarios: list) -> dict:
    """Assert the running totals against the full-encoding oracle."""
    engine = get_engine("herlihy")
    runs = records = record_bytes = 0
    for scenario in scenarios:
        assert resolve_report("herlihy", scenario, True).extra["path"] == "simulated"
        execution = engine.open(scenario)
        report = execution.run_to_completion()
        network = execution.harness.network
        for chain in network.chains():
            ledger = chain.ledger
            found = ledger.records()
            assert len(ledger) == len(found), (scenario.name, chain.chain_id)
            oracle = canonical_encoded_total([record.body() for record in found])
            assert ledger.record_bytes() == oracle, (scenario.name, chain.chain_id)
            for record in found:
                assert record.size == len(canonical_encode(record.body())), record
            records += len(found)
            record_bytes += oracle
        assert report.published_bytes == full_encode_pass(network), scenario.name
        network.verify_all()
        runs += 1
    return {"runs": runs, "records": records, "record_bytes": record_bytes}


#: Everything that sizes a record as it is built, as ``(owner, name)``.
SIZING = (
    (blockchain, "registration_size"),
    (blockchain, "transfer_size"),
    (blockchain, "publication_size"),
    (blockchain, "call_size"),
    (blockchain, "record_size"),
    (blockchain, "encoded_size"),
    (Contract, "state_size"),
    (Contract, "fixed_state_size"),
    (Contract, "args_size"),
    (SwapContract, "fixed_state_size"),
    (SwapContract, "args_size"),
)


@contextmanager
def sizing_stubbed():
    """Every build-time size helper returns 0 (records carry size 0)."""
    saved = [(owner, name, owner.__dict__[name]) for owner, name in SIZING]
    try:
        for owner, name, _ in saved:
            setattr(owner, name, lambda *args, **kwargs: 0)
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def check_stubbed(scenarios: list) -> None:
    """Under :func:`sizing_stubbed` no record is sized, so the stubbed
    arms carry none of the build-time sizing."""
    engine = get_engine("herlihy")
    with sizing_stubbed():
        for scenario in scenarios:
            execution = engine.open(scenario)
            execution.run_to_completion()
            for chain in execution.harness.network.chains():
                assert chain.ledger.record_bytes() == 0, (scenario.name, chain.chain_id)


def _round(scenarios: list, arm: str) -> float:
    """Mean seconds per run over one pass of ``arm`` (see :data:`ARMS`)."""
    engine = get_engine("herlihy")
    with nullcontext() if arm == "shipped" else sizing_stubbed():
        start = time.perf_counter()
        for scenario in scenarios:
            execution = engine.open(scenario)
            execution.run_to_completion()
            if arm == "encode_after":
                full_encode_pass(execution.harness.network)
        return (time.perf_counter() - start) / len(scenarios)


ARMS = ("shipped", "encode_after", "unsized")


def measure(scenarios: list) -> dict[str, list[float]]:
    """Ms per run of each arm, one value a round; the arms' order
    rotates round by round, so a round's arms run back to back."""
    times: dict[str, list[float]] = {arm: [] for arm in ARMS}
    for index in range(ROUNDS):
        shift = index % len(ARMS)
        for arm in ARMS[shift:] + ARMS[:shift]:
            times[arm].append(_round(scenarios, arm) * 1e3)
    return times


def paired_ratio(times: dict[str, list[float]], over: str, under: str) -> float:
    """Median over rounds of ``over / under`` within each round: the
    machine's drift between rounds cancels in each round's ratio."""
    return statistics.median(a / b for a, b in zip(times[over], times[under]))


def test_running_byte_totals():
    scenarios = fleet_drain_simulated()
    assert len(scenarios) == DRAWS * PER_KIND
    counts = check(scenarios)
    check_stubbed(scenarios)
    times = measure(scenarios)
    ms = {arm: statistics.median(values) for arm, values in times.items()}
    ratio = paired_ratio(times, "encode_after", "shipped")
    sizing_ratio = paired_ratio(times, "shipped", "unsized")
    emit_table(
        "E37",
        f"Byte accounting per simulated run (median of {ROUNDS} rounds)",
        ["runs", "records/run", "bytes/run", "shipped", "encode-after", "unsized",
         "encode-after/shipped", "shipped/unsized"],
        [[
            counts["runs"],
            f"{counts['records'] / counts['runs']:.1f}",
            f"{counts['record_bytes'] / counts['runs']:.0f}",
            f"{ms['shipped']:.3f} ms",
            f"{ms['encode_after']:.3f} ms",
            f"{ms['unsized']:.3f} ms",
            f"{ratio:.3f}x",
            f"{sizing_ratio:.3f}x",
        ]],
        notes=(
            "fleet-drain's simulated draws (seed 3, rounds 0-5).  Shipped: "
            "records sized as they are built, running ledger totals.  "
            "Encode-after: build-time sizing stubbed out, every record "
            "encoded after the run.  Unsized: sizing stubbed out, no count.  "
            f"Bounds: encode-after/shipped >= {FLOOR}x, "
            f"shipped/unsized <= {SIZING_CEILING}x."
        ),
    )
    emit_bench_json(
        "E37",
        [],
        aggregates={
            "rounds": ROUNDS,
            "floor": FLOOR,
            "sizing_ceiling": SIZING_CEILING,
            "seed": SEED,
            "draws": DRAWS,
            **counts,
            "shipped_ms_per_run": round(ms["shipped"], 4),
            "encode_after_ms_per_run": round(ms["encode_after"], 4),
            "unsized_ms_per_run": round(ms["unsized"], 4),
            "ratio": round(ratio, 3),
            "sizing_ratio": round(sizing_ratio, 3),
        },
    )
    assert ratio >= FLOOR, ms
    assert sizing_ratio <= SIZING_CEILING, ms
