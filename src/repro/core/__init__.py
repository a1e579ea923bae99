"""Core protocol: the paper's contribution (§4).

The pieces, in paper order: :mod:`~repro.core.spec` (the §4.2 published
swap instance), :mod:`~repro.core.hashkey` (§4.1), :mod:`~repro.core.contract`
(Figs. 4-5), :mod:`~repro.core.pebble` (§4.4), :mod:`~repro.core.party` and
:mod:`~repro.core.protocol` (§4.5), :mod:`~repro.core.broadcast` (the §4.5
optimisation), :mod:`~repro.core.timelocks` (§4.6),
:mod:`~repro.core.clearing` (§4.2), :mod:`~repro.core.strategies`
(deviations), :mod:`~repro.core.multiswap` and :mod:`~repro.core.recurrent`
(§5 extensions).
"""

from repro.core.accountability import (
    BondSettlement,
    FaultFinding,
    FaultReport,
    attribute_faults,
    settle_bonds,
)
from repro.core.broadcast import PhaseTwoTiming, compare_broadcast, phase_two_timing
from repro.core.clearing import (
    ClearingOutcome,
    MarketClearingService,
    Offer,
    ProposedTransfer,
    check_spec_against_offer,
    match_barter,
)
from repro.core.contract import (
    SwapContract,
    expected_contract_state,
    is_correct_contract_state,
)
from repro.core.discovery import discover_spec, spec_from_record, specs_match
from repro.core.hashkey import Hashkey
from repro.core.multiswap import MultiSwapResult, run_multigraph_swap
from repro.core.party import SwapParty
from repro.core.pebble import PebbleGameResult, eager_pebble_game, lazy_pebble_game
from repro.core.protocol import (
    SwapResult,
    SwapSimulation,
    collect_result,
    run_swap,
)
from repro.core.recurrent import (
    RecurrentOutcome,
    RecurrentRound,
    RecurrentSwapCoordinator,
)
from repro.core.spec import SwapSpec, compute_diameter_for_spec
from repro.core.strategies import (
    GreedyClaimOnlyParty,
    LastMomentUnlockParty,
    PrematureRevealParty,
    RefuseToPublishParty,
    SelectiveUnlockParty,
    WithholdSecretParty,
    WrongContractParty,
)
from repro.core.timelocks import (
    SimpleTimelockContract,
    SingleLeaderParty,
    SingleLeaderSimulation,
    SingleLeaderSpec,
    assign_timeouts,
    equal_timeouts,
    run_single_leader_swap,
    verify_gap_property,
)

__all__ = [
    "BondSettlement",
    "FaultFinding",
    "FaultReport",
    "attribute_faults",
    "settle_bonds",
    "PhaseTwoTiming",
    "compare_broadcast",
    "phase_two_timing",
    "ClearingOutcome",
    "MarketClearingService",
    "Offer",
    "ProposedTransfer",
    "check_spec_against_offer",
    "match_barter",
    "SwapContract",
    "expected_contract_state",
    "is_correct_contract_state",
    "discover_spec",
    "spec_from_record",
    "specs_match",
    "Hashkey",
    "MultiSwapResult",
    "run_multigraph_swap",
    "SwapParty",
    "PebbleGameResult",
    "eager_pebble_game",
    "lazy_pebble_game",
    "SwapResult",
    "SwapSimulation",
    "collect_result",
    "run_swap",
    "RecurrentOutcome",
    "RecurrentRound",
    "RecurrentSwapCoordinator",
    "SwapSpec",
    "compute_diameter_for_spec",
    "GreedyClaimOnlyParty",
    "LastMomentUnlockParty",
    "PrematureRevealParty",
    "RefuseToPublishParty",
    "SelectiveUnlockParty",
    "WithholdSecretParty",
    "WrongContractParty",
    "SimpleTimelockContract",
    "SingleLeaderParty",
    "SingleLeaderSimulation",
    "SingleLeaderSpec",
    "assign_timeouts",
    "equal_timeouts",
    "run_single_leader_swap",
    "verify_gap_property",
]
