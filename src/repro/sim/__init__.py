"""Discrete-event simulation substrate with the paper's Δ timing model.

Timing is pluggable: :mod:`repro.sim.timing` defines the
``uniform``/``jittered``/``stragglers`` models and
:mod:`repro.sim.harness` holds the shared simulation assembly every
protocol runner builds on.
"""

from repro.sim.clock import DEFAULT_DELTA, Clock, ticks
from repro.sim.events import Priority
from repro.sim.faults import Crash, CrashPoint, FaultPlan
from repro.sim.harness import (
    SimulationHarness,
    derive_secret,
    provision_keypairs,
)
from repro.sim.process import (
    DEFAULT_ACTION_FRACTION,
    DEFAULT_REACTION_FRACTION,
    Process,
    ReactionProfile,
)
from repro.sim.scheduler import Scheduler
from repro.sim.timing import (
    DEFAULT_TIMING_KIND,
    TIMING_KINDS,
    JitteredTiming,
    StragglerTiming,
    TimingModel,
    UniformTiming,
    is_default_timing,
    resolve_timing,
    timing_to_dict,
)
from repro.sim.trace import (
    ARC_REFUNDED,
    ARC_TRIGGERED,
    CONTRACT_PUBLISHED,
    CONTRACT_REJECTED,
    HASHLOCK_UNLOCKED,
    PARTY_CRASHED,
    PHASE_STARTED,
    PROTOCOL_ABANDONED,
    SECRET_BROADCAST,
    Trace,
    TraceEvent,
)

__all__ = [
    "DEFAULT_DELTA",
    "Clock",
    "ticks",
    "Priority",
    "Crash",
    "CrashPoint",
    "FaultPlan",
    "SimulationHarness",
    "derive_secret",
    "provision_keypairs",
    "DEFAULT_TIMING_KIND",
    "TIMING_KINDS",
    "JitteredTiming",
    "StragglerTiming",
    "TimingModel",
    "UniformTiming",
    "is_default_timing",
    "resolve_timing",
    "timing_to_dict",
    "DEFAULT_ACTION_FRACTION",
    "DEFAULT_REACTION_FRACTION",
    "Process",
    "ReactionProfile",
    "Scheduler",
    "ARC_REFUNDED",
    "ARC_TRIGGERED",
    "CONTRACT_PUBLISHED",
    "CONTRACT_REJECTED",
    "HASHLOCK_UNLOCKED",
    "PARTY_CRASHED",
    "PHASE_STARTED",
    "PROTOCOL_ABANDONED",
    "SECRET_BROADCAST",
    "Trace",
    "TraceEvent",
]
