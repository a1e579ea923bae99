"""Baseline protocols the paper's design is measured against.

* B1 :mod:`repro.baselines.naive_timelock` — hashed timelocks with equal
  timeouts (the §1 anti-pattern);
* B2 :mod:`repro.baselines.pairwise_htlc` — sequential trusted transfers
  (no atomicity);
* B3 :mod:`repro.baselines.two_phase_commit` — a trusted coordinator
  (atomic, fast, but not trust-free).
"""

from repro.baselines.naive_timelock import LastMomentSingleLeaderParty
from repro.baselines.pairwise_htlc import SequentialParty
from repro.baselines.two_phase_commit import (
    COORDINATOR,
    CoordinatedEscrowContract,
    Coordinator,
)

__all__ = [
    "LastMomentSingleLeaderParty",
    "SequentialParty",
    "COORDINATOR",
    "CoordinatedEscrowContract",
    "Coordinator",
]
